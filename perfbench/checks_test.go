package main

import (
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	incremental "iglr"
)

// Each output check must pass on the program's real output and fail when
// that output is corrupted.

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test-")
	if err != nil {
		panic(err)
	}
	runDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func TestCheckEditedText(t *testing.T) {
	src := "int v1 = 2;\n"
	if err := checkEditedText("int q1 = 2;\n", src, 4, 'q'); err != nil {
		t.Fatalf("correct text rejected: %v", err)
	}
	for _, bad := range []string{
		"int v1 = 2;\n",  // edit not applied
		"int q1 = 2;",    // byte lost
		"int q1 = 3;\n",  // another byte changed
		"int q1 = 2;\n ", // byte added
	} {
		if checkEditedText(bad, src, 4, 'q') == nil {
			t.Errorf("corrupted text %q accepted", bad)
		}
	}
}

func TestKeystrokeChecks(t *testing.T) {
	k := newKeystroke(3, 400)
	if err := k.setup(nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := k.op(i, nil); err != nil {
			t.Fatal(err)
		}
		if err := k.after(i, nil); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if err := k.finish(); err != nil {
		t.Fatalf("batch ≡ incremental check failed on a correct session: %v", err)
	}

	dagText := incremental.FormatDag(k.lang, k.sess.Tree())
	corrupt := strings.Replace(dagText, "\n", "\n ", 1)
	if checkSameDag(corrupt, dagText) == nil || checkSameDag(dagText, dagText[:len(dagText)/2]) == nil {
		t.Error("corrupted dag rendering accepted")
	}
	other := incremental.NewSession(k.lang, k.src[:len(k.src)-2]+"q;\n")
	otherOut := other.Do(nil)
	if otherOut.Err != nil {
		t.Fatal(otherOut.Err)
	}
	if checkSameTree(k.lang, k.sess.Tree(), otherOut.Root) == nil {
		t.Error("dag of another text accepted as the batch parse")
	}
	if checkCount("ambiguous regions", k.amb+1, k.amb) == nil {
		t.Error("wrong ambiguity count accepted")
	}

	// A session whose text moved under the benchmark's feet.
	k.sess.Edit(0, 0, " ")
	k.sess.Do(nil)
	if k.after(6, nil) == nil {
		t.Error("text check accepted a session with an extra edit")
	}
}

// A session whose tree missed a forward edit — Edit without Do, as a Do
// that did no work would leave it — must fail the checkpoint that follows
// the edit, even though its text is right.
func TestKeystrokeStaleTree(t *testing.T) {
	k := newKeystroke(4, 400)
	if err := k.setup(nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*keystrokeCheckEvery+1; i++ {
		e := k.edit(i)
		if i%keystrokeCheckEvery == 0 {
			k.sess.Edit(e.Offset, e.Removed, e.Inserted)
			if k.after(i, nil) == nil {
				t.Fatalf("op %d: stale tree of a forward edit accepted", i)
			}
			if out := k.sess.Do(nil); out.Err != nil {
				t.Fatal(out.Err)
			}
		} else if err := k.op(i, nil); err != nil {
			t.Fatal(err)
		}
		if err := k.after(i, nil); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
}

func TestColdCorpusChecks(t *testing.T) {
	c := newColdCorpus(2, 0.001)
	if err := c.setup(nil); err != nil {
		t.Fatal(err)
	}
	if err := c.op(0, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.after(0, nil); err != nil {
		t.Fatalf("correct pass rejected: %v", err)
	}

	res := c.last[0].Results
	res[0].Root, res[1].Root = res[1].Root, res[0].Root
	if c.checkTrees() == nil {
		t.Error("trees swapped between files accepted")
	}
	res[0].Root, res[1].Root = res[1].Root, res[0].Root

	c.groups[0].amb[0]++
	if c.checkTrees() == nil {
		t.Error("wrong ambiguity count accepted")
	}
	c.groups[0].amb[0]--

	if checkYield("inta;", "intb;") == nil {
		t.Error("wrong yield accepted")
	}
	res[0].Root = nil
	if c.after(0, nil) == nil {
		t.Error("missing tree accepted")
	}
}

func TestTypingOutcomeCheck(t *testing.T) {
	brk := typingEdit{editJSON{Offset: 10, Insert: ")"}, breaking}
	rep := typingEdit{editJSON{Offset: 10, Remove: 1}, repairing}
	isolated := outcomeJSON{Isolated: true, ErrorRegions: 1, TextLen: 100}
	diag := []diagnosticJSON{{Offset: 4, Length: 8}}
	if err := checkTypingOutcome(isolated, diag, 100, brk); err != nil {
		t.Fatalf("correct breaking outcome rejected: %v", err)
	}
	if err := checkTypingOutcome(outcomeJSON{Clean: true, TextLen: 99}, nil, 99, rep); err != nil {
		t.Fatalf("correct repairing outcome rejected: %v", err)
	}
	cases := []struct {
		name  string
		out   outcomeJSON
		diags []diagnosticJSON
		n     int
		e     typingEdit
	}{
		{"length", outcomeJSON{Isolated: true, ErrorRegions: 1, TextLen: 101}, diag, 100, brk},
		{"not isolated", outcomeJSON{Clean: true, TextLen: 100}, diag, 100, brk},
		{"two regions", outcomeJSON{Isolated: true, ErrorRegions: 2, TextLen: 100}, diag, 100, brk},
		{"diagnostic elsewhere", isolated, []diagnosticJSON{{Offset: 11, Length: 3}}, 100, brk},
		{"no diagnostic", isolated, nil, 100, brk},
		{"repair not clean", outcomeJSON{Isolated: true, ErrorRegions: 1, TextLen: 99}, nil, 99, rep},
		{"diagnostic left after repair", outcomeJSON{Clean: true, TextLen: 99}, diag, 99, rep},
	}
	for _, c := range cases {
		if checkTypingOutcome(c.out, c.diags, c.n, c.e) == nil {
			t.Errorf("%s: corrupted outcome accepted", c.name)
		}
	}
}

func TestIglrdTypingChecks(t *testing.T) {
	w := newIglrdTyping(5, 2, 60)
	defer w.close()
	tr := newTracer()
	if err := w.setup(tr); err != nil {
		t.Fatal(err)
	}
	// A whole session lifetime, then a breaking and a repairing edit on
	// both reopened sessions.
	ops := w.lifetime() + 2*2*typingBreakEvery
	for i := 0; i < ops; i++ {
		if err := w.op(i, tr); err != nil {
			t.Fatal(err)
		}
		if err := w.after(i, tr); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if err := w.finish(); err != nil {
		t.Fatalf("correct daemon state rejected: %v", err)
	}
	for _, m := range w.layers(tr, ops, ops) {
		if m.Name == "journal_records_per_op" && m.Value != 1 {
			t.Errorf("journal records per op = %v, want 1", m.Value)
		}
	}

	// Subtree checks follow forward edits only, and cover both renames and
	// breaking edits.
	kinds := map[editKind]int{}
	for i := 0; i < ops; i++ {
		if w.checkDue(i) {
			_, e := w.step(i)
			kinds[e.kind]++
		}
	}
	if kinds[rename] == 0 || kinds[breaking] == 0 || kinds[unrename]+kinds[repairing] != 0 {
		t.Errorf("subtree checks after edits of kinds %v, want renames and breaks only", kinds)
	}

	s, e := w.step(0)
	var got subtreeJSON
	start := strings.LastIndexByte(s.text[:e.Offset], '\n') + 1
	end := e.Offset + strings.IndexByte(s.text[e.Offset:], '\n')
	url := w.base + "/sessions/" + s.id + "/subtree?offset=" + strconv.Itoa(start) + "&length=" + strconv.Itoa(end-start)
	if err := w.call(w.hc, "GET", url, nil, &got); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []subtreeJSON{
		{got.Symbol + "x", got.Offset, got.Length, got.Outline},
		{got.Symbol, got.Offset + 1, got.Length, got.Outline},
		{got.Symbol, got.Offset, got.Length, got.Outline + " "},
	} {
		if checkSubtreeMatch(bad, got) == nil {
			t.Errorf("corrupted subtree %+v accepted", bad)
		}
	}
	// The client's text no longer matches the daemon's.
	s.text = s.text[:start] + "int zz;\n" + s.text[start:]
	if w.checkSubtree(s, e.Offset+8) == nil {
		t.Error("subtree check accepted a daemon tree of other text")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if q := quantile(xs, 0.5); q != 3 {
		t.Errorf("median = %v, want 3", q)
	}
	if q := quantile(xs, 0.9); math.Abs(q-4.6) > 1e-9 {
		t.Errorf("p90 = %v, want 4.6", q)
	}
}
