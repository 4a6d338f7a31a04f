package main

import (
	"context"
	"fmt"

	incremental "iglr"
	"iglr/engine"
	"iglr/internal/corpus"
	"iglr/internal/langreg"
	"iglr/internal/lexer"
)

// The cold_corpus workload: the Table 1 corpus (C and C++ subsets, line
// counts scaled by corpusScale) through engine.ParseAll at its default
// policy. One op is one pass over the whole corpus: one ParseAll per
// language. A round is corpusCheckEvery passes, the first of which is
// followed by a full check of every tree.
const (
	corpusScale      = 0.01
	corpusMinLines   = 100
	corpusCheckEvery = 32 // passes between full checks of every tree
	corpusHeapAt     = 64 // passes before heap_live_mb is read
)

type corpusGroup struct {
	lang     *incremental.Language
	spec     *lexer.Spec
	inputs   []engine.Input
	amb      []int    // ambiguous constructs per file, from the generator
	stripped []string // each source minus whitespace; filled off the clock
}

type coldCorpus struct {
	seed   int64
	scale  float64
	groups []*corpusGroup
	bytes  int
	files  int
	last   []*engine.Batch // the latest pass's results, one per group
	buf    []lexer.Token
}

func newColdCorpus(seed int64, scale float64) *coldCorpus {
	return &coldCorpus{seed: seed, scale: scale}
}

func (c *coldCorpus) setup(tr *tracer) error {
	byLang := map[string]*corpusGroup{}
	for _, l := range []struct{ lang, name string }{{"c", "c-subset"}, {"c++", "cpp-subset"}} {
		lang, ok := incremental.BundledLanguage(l.name)
		e, ok2 := langreg.Find(l.name)
		if !ok || !ok2 {
			return fmt.Errorf("language %s is not bundled", l.name)
		}
		g := &corpusGroup{lang: lang, spec: e.Lang().Spec}
		byLang[l.lang] = g
		c.groups = append(c.groups, g)
	}
	for i, spec := range corpus.Table1Specs() {
		spec.Lines = max(int(float64(spec.Lines)*c.scale), corpusMinLines)
		spec.Seed = c.seed*1000 + int64(i)
		src, amb := corpus.Generate(spec)
		g := byLang[spec.Lang]
		g.inputs = append(g.inputs, engine.Input{Name: spec.Name, Source: src})
		g.amb = append(g.amb, amb)
		c.bytes += len(src)
		c.files++
	}
	// One pass before the clock starts, so the first timed op finds the
	// language tables and the runtime warmed like every later one.
	return c.op(-1, nil)
}

func (c *coldCorpus) roundLen() int { return corpusCheckEvery }

func (c *coldCorpus) op(i int, tr *tracer) error {
	opSpan := tr.begin("op", -1, i)
	defer tr.end(opSpan)
	c.last = c.last[:0]
	for _, g := range c.groups {
		sp := tr.begin("engine", opSpan, i)
		batch, err := engine.ParseAll(context.Background(), g.lang, g.inputs)
		tr.end(sp)
		if err != nil {
			return err
		}
		if batch.Aggregate.Failed != 0 {
			for _, r := range batch.Results {
				if r.Err != nil {
					return fmt.Errorf("%s: %w", r.Name, r.Err)
				}
			}
		}
		c.last = append(c.last, batch)
	}
	return nil
}

func (c *coldCorpus) after(i int, tr *tracer) error {
	for gi, g := range c.groups {
		if got := len(c.last[gi].Results); got != len(g.inputs) {
			return fmt.Errorf("ParseAll returned %d results for %d files", got, len(g.inputs))
		}
		for _, r := range c.last[gi].Results {
			if r.Root == nil {
				return fmt.Errorf("%s: no tree", r.Name)
			}
		}
	}
	if i%corpusCheckEvery == 0 {
		if err := c.checkTrees(); err != nil {
			return err
		}
		settle()
	}
	if tr != nil {
		return c.stages(i, tr)
	}
	return nil
}

func (c *coldCorpus) finish() error { return c.checkTrees() }

func (c *coldCorpus) heapAt() int { return corpusHeapAt }

// checkTrees checks every tree of the latest pass: its yield is the file's
// source without whitespace, and its ambiguous regions are the constructs
// the generator emitted.
func (c *coldCorpus) checkTrees() error {
	for gi, g := range c.groups {
		if g.stripped == nil {
			for _, in := range g.inputs {
				g.stripped = append(g.stripped, stripSpace(in.Source))
			}
		}
		for fi, r := range c.last[gi].Results {
			if err := checkYield(r.Root.Yield(), g.stripped[fi]); err != nil {
				return fmt.Errorf("%s: %w", r.Name, err)
			}
			if err := checkCount(r.Name+": ambiguous regions", incremental.Measure(r.Root).AmbiguousRegions, g.amb[fi]); err != nil {
				return err
			}
		}
	}
	return nil
}

// stages replays op i's files through the layers ParseAll composes, one
// call each: the lexer's ScanInto, NewSession (document build), a cold
// Session.Do, and Measure on the resulting dag.
func (c *coldCorpus) stages(i int, tr *tracer) error {
	for _, g := range c.groups {
		for _, in := range g.inputs {
			sp := tr.begin("lex", -1, i)
			c.buf = g.spec.ScanInto(in.Source, c.buf[:0])
			tr.end(sp)
			sp = tr.begin("open", -1, i)
			s := incremental.NewSession(g.lang, in.Source)
			tr.end(sp)
			sp = tr.begin("parse", -1, i)
			out := s.Do(context.Background())
			tr.end(sp)
			if out.Err != nil {
				return fmt.Errorf("%s: cold Do: %w", in.Name, out.Err)
			}
			st := incremental.Measure(out.Root)
			tr.count("dag_nodes", float64(st.DagNodes))
			tr.count("tree_nodes", float64(st.TreeNodes))
		}
	}
	return nil
}

func (c *coldCorpus) layers(tr *tracer, n, ops int) []metric {
	mb := float64(c.bytes) / 1e6 * float64(n)
	perMB := func(name string) metric {
		s := tr.sum(name, 0, ops)
		return metric{name + "_ms_per_mb", "ms/MB", s.total / mb, s.n}
	}
	engineSpans := tr.sum("engine", 0, ops)
	dagNodes, treeNodes := tr.counts["dag_nodes"], tr.counts["tree_nodes"]
	return []metric{
		perMB("lex"),
		perMB("open"),
		perMB("parse"),
		perMB("engine"),
		{"dag_nodes_per_kb", "nodes/KB", dagNodes / (mb * 1e3), n * c.files},
		{"dag_space_overhead_pct", "%", 100 * (dagNodes - treeNodes) / treeNodes, n * c.files},
		{"allocs_per_file", "count", float64(engineSpans.allocObjects) / float64(n*c.files), n * c.files},
	}
}

func (c *coldCorpus) close() {}
