package main

import (
	"context"
	"fmt"

	incremental "iglr"
	"iglr/internal/corpus"
)

// The keystroke workload: one large generated C-subset document with the
// Table 1 typedef ambiguities, edited by a seeded script of self-cancelling
// single-byte identifier edits. One op is Session.Edit followed by
// Session.Do. A round is one lifetime of the document: it is opened afresh
// off the clock, takes keystrokeSessionOps ops (pairs of an edit and its
// inverse), and is dropped. A session's heap grows with every edit it takes
// (see README.md), and op latency follows the heap through the collector,
// so a fixed lifetime, with runs made of whole lifetimes, keeps every run's
// ops alike however many of them fit in the run.
const (
	keystrokeLines      = 16000
	keystrokeAmbPerKLoC = 5
	keystrokePairs      = 4096 // script length; longer runs wrap around
	keystrokeCheckEvery = 128  // ops between batch ≡ incremental checks
	keystrokeSessionOps = 128  // ops between re-opens of the document
)

type keystroke struct {
	seed   int64
	lines  int
	lang   *incremental.Language
	src    string
	amb    int // ambiguous constructs the generator emitted
	script [][2]corpus.Edit
	sess   *incremental.Session
}

func newKeystroke(seed int64, lines int) *keystroke {
	return &keystroke{seed: seed, lines: lines}
}

func (k *keystroke) setup(tr *tracer) error {
	k.lang = incremental.CSubset()
	k.src, k.amb = corpus.Generate(corpus.Spec{
		Name: "keystroke", Lines: k.lines, Lang: "c",
		AmbiguousPerKLoC: keystrokeAmbPerKLoC, Seed: k.seed,
	})
	k.script = corpus.SelfCancellingEdits(k.src, keystrokePairs, k.seed)
	if len(k.script) == 0 {
		return fmt.Errorf("no identifier to edit in the generated document")
	}
	return k.open(tr)
}

// open starts a session on the original text and parses it.
func (k *keystroke) open(tr *tracer) error {
	sp := tr.begin("open", -1, -1)
	k.sess = incremental.NewSession(k.lang, k.src)
	tr.end(sp)
	sp = tr.begin("do", -1, -1)
	out := k.sess.Do(context.Background())
	tr.end(sp)
	return out.Err
}

func (k *keystroke) roundLen() int { return keystrokeSessionOps }

func (k *keystroke) edit(i int) corpus.Edit { return k.script[(i/2)%len(k.script)][i%2] }

func (k *keystroke) op(i int, tr *tracer) error {
	e := k.edit(i)
	opSpan := tr.begin("op", -1, i)
	sp := tr.begin("edit", opSpan, i)
	k.sess.Edit(e.Offset, e.Removed, e.Inserted)
	tr.end(sp)
	sp = tr.begin("do", opSpan, i)
	out := k.sess.Do(context.Background())
	tr.end(sp)
	tr.end(opSpan)
	if out.Err != nil {
		return out.Err
	}
	if tr != nil {
		tr.count("relexed_terminals", float64(k.sess.Relexed()))
		tr.count("terminal_shifts", float64(out.Stats.TerminalShifts))
		tr.count("subtree_shifts", float64(out.Stats.SubtreeShifts))
		tr.count("reductions", float64(out.Stats.Reductions))
		tr.count("breakdowns", float64(out.Stats.Breakdowns))
		tr.count("retained_nodes", float64(out.Stats.RetainedNodes))
	}
	return nil
}

func (k *keystroke) after(i int, _ *tracer) error {
	e := k.edit(i)
	if err := checkEditedText(k.sess.Text(), k.src, e.Offset, e.Inserted[0]); err != nil {
		return err
	}
	// Checkpoints fall on forward edits (even ops), when the text holds the
	// edited byte, so a tree that missed the edit cannot match the batch
	// parse; finish checks the state after a whole pair.
	if i%keystrokeCheckEvery == 0 {
		if err := k.checkpoint(); err != nil {
			return err
		}
		settle()
	}
	if (i+1)%keystrokeSessionOps == 0 {
		if err := k.open(nil); err != nil {
			return err
		}
		settle()
	}
	return nil
}

func (k *keystroke) heapAt() int { return keystrokeSessionOps }

func (k *keystroke) finish() error { return k.checkpoint() }

// checkpoint compares the incrementally maintained dag with a fresh batch
// parse of the same text, and counts its ambiguous regions against the
// generator's count. Every edit renames an identifier, which changes no
// typedef ambiguity, so the count holds at every op.
func (k *keystroke) checkpoint() error {
	text := k.sess.Text()
	batch := incremental.NewSession(k.lang, text)
	out := batch.Do(context.Background())
	if out.Err != nil {
		return fmt.Errorf("batch parse of the edited text: %w", out.Err)
	}
	if err := checkSameTree(k.lang, k.sess.Tree(), out.Root); err != nil {
		return err
	}
	return checkCount("ambiguous regions", incremental.Measure(k.sess.Tree()).AmbiguousRegions, k.amb)
}

func (k *keystroke) layers(tr *tracer, n, ops int) []metric {
	edit, do := tr.sum("edit", 0, ops), tr.sum("do", 0, ops)
	perOp := func(name string) float64 { return tr.counts[name] / float64(n) }
	return []metric{
		{"edit_ms", "ms", edit.meanMS(), edit.n},
		{"edit_alloc_kb", "KB", float64(edit.allocBytes) / 1e3 / float64(edit.n), edit.n},
		{"do_ms", "ms", do.meanMS(), do.n},
		{"do_alloc_kb", "KB", float64(do.allocBytes) / 1e3 / float64(do.n), do.n},
		{"relexed_terminals", "count", perOp("relexed_terminals"), n},
		{"terminal_shifts", "count", perOp("terminal_shifts"), n},
		{"subtree_shifts", "count", perOp("subtree_shifts"), n},
		{"reductions", "count", perOp("reductions"), n},
		{"breakdowns", "count", perOp("breakdowns"), n},
		{"retained_nodes", "count", perOp("retained_nodes"), n},
	}
}

func (k *keystroke) close() {}
