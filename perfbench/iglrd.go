package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	incremental "iglr"
	"iglr/daemon"
	"iglr/internal/corpus"
)

// The iglrd_typing workload: an in-process iglrd on loopback, persistence
// on, serving typingSessions small tolerant C-subset sessions. One client
// goroutine works round-robin over them. One op is one edit batch (POST
// /sessions/{id}/edits) followed by a diagnostics read, the way an editor
// refreshes its squiggles; a round is one op on every session. Every
// fourth edit pair breaks a statement and then repairs it. Once every
// session has run its whole script, the client closes the sessions and
// opens them afresh, off the clock, as the keystroke workload reopens its
// document: a session's heap grows with every edit it takes.
const (
	typingSessions    = 32
	typingLines       = 500
	typingPairs       = 64 // edit pairs per session script
	typingBreakEvery  = 4  // every fourth pair breaks and repairs a statement
	typingCheckRounds = 16 // rounds between subtree checks against a batch parse
)

type editKind int

const (
	rename editKind = iota
	unrename
	breaking
	repairing
)

// Wire forms of the iglrd data plane, as a client sees them.
type editJSON struct {
	Offset int    `json:"offset"`
	Remove int    `json:"remove"`
	Insert string `json:"insert"`
}

type diagnosticJSON struct {
	Offset int `json:"offset"`
	Length int `json:"length"`
}

type outcomeJSON struct {
	Clean        bool             `json:"clean"`
	Isolated     bool             `json:"isolated"`
	ErrorRegions int              `json:"error_regions"`
	Error        string           `json:"error"`
	Diagnostics  []diagnosticJSON `json:"diagnostics"`
	ParseMicros  int64            `json:"parse_micros"`
	TextLen      int              `json:"text_len"`
}

type subtreeJSON struct {
	Symbol  string `json:"symbol"`
	Offset  int    `json:"offset"`
	Length  int    `json:"length"`
	Outline string `json:"outline"`
}

type typingEdit struct {
	editJSON
	kind editKind
}

type typedSession struct {
	id     string
	src    string // the text the session is opened with
	text   string // the client's own copy of the document
	script []typingEdit
	out    outcomeJSON
	diags  struct {
		Diagnostics []diagnosticJSON `json:"diagnostics"`
	}
	twin *incremental.Session // library replay of the same script (traced runs)
}

type iglrdTyping struct {
	seed      int64
	nSessions int
	lines     int
	lang      *incremental.Language
	dir       string
	d         *daemon.Daemon
	base      string
	admin     string
	hc        *http.Client // for ops only: its connections count wire bytes
	plainHC   *http.Client // for set-up, checks and /metrics
	wire      atomic.Int64
	sess      []*typedSession

	// The /metrics reading and wire count at the first traced op.
	scrapeOp int
	scrape0  map[string]float64
	wire0    int64
}

func newIglrdTyping(seed int64, sessions, lines int) *iglrdTyping {
	return &iglrdTyping{seed: seed, nSessions: sessions, lines: lines, scrapeOp: -1}
}

// countingConn counts the bytes a connection carries in both directions.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

func (t *iglrdTyping) setup(tr *tracer) error {
	t.lang = incremental.CSubset()
	dir, err := os.MkdirTemp(runDir, "iglrd-")
	if err != nil {
		return err
	}
	t.dir = dir
	t.d, err = daemon.New(daemon.Config{
		Listen:      "127.0.0.1:0",
		AdminListen: "127.0.0.1:0",
		Bundled:     []string{"c-subset"},
		Persist:     daemon.Persist{Dir: dir},
	})
	if err != nil {
		return err
	}
	t.d.Logf = func(string, ...any) {}
	if err := t.d.Start(); err != nil {
		return err
	}
	t.base = "http://" + t.d.Addr().String()
	t.admin = "http://" + t.d.AdminAddr().String()
	dialer := &net.Dialer{}
	t.hc = &http.Client{Timeout: time.Minute, Transport: &http.Transport{
		DisableCompression: true,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := dialer.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			return countingConn{c, &t.wire}, nil
		},
	}}
	t.plainHC = &http.Client{Timeout: time.Minute, Transport: &http.Transport{}}

	for j := 0; j < t.nSessions; j++ {
		seed := t.seed*1000 + int64(j)
		src, _ := corpus.Generate(corpus.Spec{
			Name: "typing", Lines: t.lines, Lang: "c",
			AmbiguousPerKLoC: keystrokeAmbPerKLoC, Seed: seed,
		})
		script, err := typingScript(src, typingPairs, seed)
		if err != nil {
			return err
		}
		s := &typedSession{src: src, script: script}
		// The traced run replays the script on library sessions too.
		if err := t.open(s, tr, tr != nil); err != nil {
			return err
		}
		t.sess = append(t.sess, s)
	}
	return nil
}

// open creates the session in the daemon with its original text, and with
// twin a library session of the same text.
func (t *iglrdTyping) open(s *typedSession, tr *tracer, twin bool) error {
	var created struct {
		ID      string      `json:"id"`
		Outcome outcomeJSON `json:"outcome"`
	}
	sp := tr.begin("create", -1, -1)
	err := t.call(t.plainHC, "POST", t.base+"/sessions", map[string]any{
		"language": "c-subset", "text": s.src, "tolerant": true,
	}, &created)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("create session: %w", err)
	}
	if !created.Outcome.Clean || created.Outcome.TextLen != len(s.src) {
		return fmt.Errorf("create session: outcome %+v for a clean %d-byte document", created.Outcome, len(s.src))
	}
	s.id, s.text = created.ID, s.src
	if twin {
		s.twin = incremental.NewSession(t.lang, s.src)
		if out := s.twin.Do(context.Background(), incremental.Tolerant()); out.Err != nil {
			return out.Err
		}
	}
	return nil
}

// reopen closes every session and opens it afresh.
func (t *iglrdTyping) reopen() error {
	for _, s := range t.sess {
		if s.text != s.src {
			return fmt.Errorf("session %s: script ended away from the original text", s.id)
		}
		if err := t.call(t.plainHC, "DELETE", t.base+"/sessions/"+s.id, nil, nil); err != nil {
			return err
		}
		if err := t.open(s, nil, s.twin != nil); err != nil {
			return err
		}
	}
	return nil
}

// typingScript makes one session's edits: pairs of an edit and its
// inverse. Most pairs rename an identifier and rename it back; every
// typingBreakEvery-th pair inserts a ")" before a statement's ";" and then
// deletes it again.
func typingScript(src string, pairs int, seed int64) ([]typingEdit, error) {
	renames := corpus.SelfCancellingEdits(src, pairs, seed)
	var semis []int
	for i := 1; i < len(src); i++ {
		if src[i] == ';' && strings.HasPrefix(src[strings.LastIndexByte(src[:i], '\n')+1:], "  ") {
			semis = append(semis, i)
		}
	}
	if len(renames) == 0 || len(semis) == 0 {
		return nil, fmt.Errorf("generated document has nothing to edit")
	}
	rng := rand.New(rand.NewSource(seed))
	var out []typingEdit
	for p := 0; p < pairs; p++ {
		if p%typingBreakEvery == typingBreakEvery-1 {
			at := semis[rng.Intn(len(semis))]
			out = append(out,
				typingEdit{editJSON{at, 0, ")"}, breaking},
				typingEdit{editJSON{at, 1, ""}, repairing})
			continue
		}
		r := renames[p]
		out = append(out,
			typingEdit{editJSON{r[0].Offset, r[0].Removed, r[0].Inserted}, rename},
			typingEdit{editJSON{r[1].Offset, r[1].Removed, r[1].Inserted}, unrename})
	}
	return out, nil
}

// call sends one request and decodes its JSON answer into out.
func (t *iglrdTyping) call(hc *http.Client, method, url string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

func (t *iglrdTyping) roundLen() int { return t.nSessions }

// heapAt reads the heap after the last op of the first session lifetime.
func (t *iglrdTyping) heapAt() int { return t.lifetime() }

// lifetime is the number of ops between reopens: every session's whole
// script.
func (t *iglrdTyping) lifetime() int { return 2 * typingPairs * t.nSessions }

func (t *iglrdTyping) step(i int) (*typedSession, typingEdit) {
	s := t.sess[i%t.nSessions]
	return s, s.script[(i/t.nSessions)%len(s.script)]
}

func (t *iglrdTyping) op(i int, tr *tracer) error {
	s, e := t.step(i)
	opSpan := tr.begin("op", -1, i)
	defer tr.end(opSpan)
	sp := tr.begin("rtt_edit", opSpan, i)
	s.out = outcomeJSON{}
	err := t.call(t.hc, "POST", t.base+"/sessions/"+s.id+"/edits",
		map[string]any{"edits": []editJSON{e.editJSON}}, &s.out)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("rtt_read", opSpan, i)
	s.diags.Diagnostics = nil
	err = t.call(t.hc, "GET", t.base+"/sessions/"+s.id+"/diagnostics", nil, &s.diags)
	tr.end(sp)
	return err
}

func (t *iglrdTyping) after(i int, tr *tracer) error {
	s, e := t.step(i)
	s.text = s.text[:e.Offset] + e.Insert + s.text[e.Offset+e.Remove:]
	if err := checkTypingOutcome(s.out, s.diags.Diagnostics, len(s.text), e); err != nil {
		return fmt.Errorf("session %s: %w", s.id, err)
	}
	if s.twin != nil {
		sp := tr.begin("lib_edit", -1, i)
		s.twin.Edit(e.Offset, e.Remove, e.Insert)
		tr.end(sp)
		sp = tr.begin("lib_do", -1, i)
		out := s.twin.Do(context.Background(), incremental.Tolerant())
		tr.end(sp)
		if out.Err != nil {
			return fmt.Errorf("library replay: %w", out.Err)
		}
	}
	if tr != nil {
		tr.count("server_parse_us", float64(s.out.ParseMicros))
		if t.scrape0 == nil {
			m, err := t.scrapeMetrics()
			if err != nil {
				return err
			}
			t.scrape0, t.scrapeOp, t.wire0 = m, i, t.wire.Load()
		}
	}
	if t.checkDue(i) {
		if err := t.checkSubtree(s, e.Offset); err != nil {
			return err
		}
	}
	if (i+1)%t.lifetime() == 0 {
		return t.reopen()
	}
	return nil
}

// checkDue reports whether op i is followed by a subtree check: once every
// typingCheckRounds rounds, on another session each time, and always after
// a forward edit, so that a daemon tree that missed the edit cannot match
// the batch parse. The checks alternate between a rename and a breaking
// edit, whose isolated tree is compared too.
func (t *iglrdTyping) checkDue(i int) bool {
	block := i / (t.nSessions * typingCheckRounds)
	if i%t.nSessions != block%t.nSessions {
		return false
	}
	switch (i / t.nSessions) % typingCheckRounds {
	case 0: // script step 16m: the rename of pair 8m
		return block%2 == 0
	case 2 * (typingBreakEvery - 1): // step 16m+6: the break of pair 8m+3
		return block%2 == 1
	}
	return false
}

// checkTypingOutcome checks one op's answers against the client's own
// text: the outcome's length, and the parse state the edit's kind implies.
func checkTypingOutcome(out outcomeJSON, diags []diagnosticJSON, textLen int, e typingEdit) error {
	if out.TextLen != textLen {
		return fmt.Errorf("outcome text_len %d, client text %d bytes", out.TextLen, textLen)
	}
	if e.kind != breaking {
		if !out.Clean || out.Isolated || len(diags) != 0 {
			return fmt.Errorf("edit %+v: want a clean parse without diagnostics, got %+v and %d diagnostics", e.editJSON, out, len(diags))
		}
		return nil
	}
	if !out.Isolated || out.ErrorRegions != 1 {
		return fmt.Errorf("breaking edit at %d: want isolated with one error region, got %+v", e.Offset, out)
	}
	if len(diags) != 1 || e.Offset < diags[0].Offset || e.Offset >= diags[0].Offset+diags[0].Length {
		return fmt.Errorf("breaking edit at %d: want one diagnostic covering it, got %+v", e.Offset, diags)
	}
	return nil
}

// checkSubtree reads the subtree over the edited line from the daemon and
// compares it with the same span of a library batch parse of the client's
// text.
func (t *iglrdTyping) checkSubtree(s *typedSession, at int) error {
	start := strings.LastIndexByte(s.text[:at], '\n') + 1
	end := at + strings.IndexByte(s.text[at:], '\n')
	var got subtreeJSON
	if err := t.call(t.plainHC, "GET", fmt.Sprintf("%s/sessions/%s/subtree?offset=%d&length=%d", t.base, s.id, start, end-start), nil, &got); err != nil {
		return err
	}
	b := incremental.NewSession(t.lang, s.text)
	if out := b.Do(context.Background(), incremental.Tolerant()); out.Err != nil {
		return fmt.Errorf("batch parse of the client text: %w", out.Err)
	}
	n := b.Subtree(start, end-start)
	if n == nil {
		return fmt.Errorf("batch parse has no subtree over [%d,%d)", start, end)
	}
	off, ln, _ := b.NodeSpan(n)
	want := subtreeJSON{Symbol: t.lang.SymName(n.Sym), Offset: off, Length: ln, Outline: incremental.FormatDag(t.lang, n)}
	return checkSubtreeMatch(got, want)
}

func checkSubtreeMatch(got, want subtreeJSON) error {
	if got.Symbol != want.Symbol || got.Offset != want.Offset || got.Length != want.Length {
		return fmt.Errorf("daemon subtree %s [%d,+%d), batch parse %s [%d,+%d)",
			got.Symbol, got.Offset, got.Length, want.Symbol, want.Offset, want.Length)
	}
	if err := checkSameDag(got.Outline, want.Outline); err != nil {
		return fmt.Errorf("subtree %s: %w", got.Symbol, err)
	}
	return nil
}

func (t *iglrdTyping) finish() error {
	for _, s := range t.sess {
		if s.twin != nil && s.twin.Text() != s.text {
			return fmt.Errorf("library replay of session %s diverged from the client text", s.id)
		}
	}
	s, e := t.step(0)
	return t.checkSubtree(s, e.Offset)
}

// scrapeMetrics reads the admin plane's Prometheus text.
func (t *iglrdTyping) scrapeMetrics() (map[string]float64, error) {
	resp, err := t.plainHC.Get(t.admin + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	m := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			m[name] = v
		}
	}
	return m, sc.Err()
}

// layers reads the daemon's counters and the wire count as deltas over
// every op after the first traced one, traced or not: they are taken from
// /metrics and the connections, not from spans.
func (t *iglrdTyping) layers(tr *tracer, n, ops int) []metric {
	m1, err := t.scrapeMetrics()
	if err != nil || t.scrape0 == nil {
		m1 = map[string]float64{}
	}
	scraped := ops - t.scrapeOp - 1 // ops after the first reading
	diff := func(name string) float64 { return m1[name] - t.scrape0[name] }
	waitN := diff("iglrd_queue_wait_seconds_count")
	edit, read := tr.sum("rtt_edit", 0, ops), tr.sum("rtt_read", 0, ops)
	libEdit, libDo := tr.sum("lib_edit", 0, ops), tr.sum("lib_do", 0, ops)
	create := tr.sum("create", -1, 0)
	return []metric{
		{"rtt_edit_ms", "ms", edit.meanMS(), edit.n},
		{"rtt_read_ms", "ms", read.meanMS(), read.n},
		{"server_parse_ms", "ms", tr.counts["server_parse_us"] / 1e3 / float64(n), n},
		{"lib_edit_ms", "ms", libEdit.meanMS(), libEdit.n},
		{"lib_do_ms", "ms", libDo.meanMS(), libDo.n},
		{"queue_wait_ms", "ms", 1e3 * diff("iglrd_queue_wait_seconds_sum") / waitN, int(waitN)},
		{"journal_records_per_op", "count", diff("iglrd_journal_records_total") / float64(scraped), scraped},
		{"isolated_parses_per_op", "count", diff("iglrd_isolated_parses_total") / float64(scraped), scraped},
		{"wire_bytes_per_op", "B", float64(t.wire.Load()-t.wire0) / float64(scraped), scraped},
		{"create_ms", "ms", create.meanMS(), create.n},
	}
}

func (t *iglrdTyping) close() {
	if t.d != nil {
		if t.hc != nil {
			t.hc.CloseIdleConnections()
			t.plainHC.CloseIdleConnections()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_ = t.d.Shutdown(ctx) // nothing to report: the run's results are in
		cancel()
	}
	if t.dir != "" {
		os.RemoveAll(t.dir)
	}
}
