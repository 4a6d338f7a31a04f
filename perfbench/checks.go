package main

import (
	"fmt"
	"strings"

	incremental "iglr"
)

// The output checks. Each compares what the program returned with a value
// the benchmark derives on its own — its own copy of the text, a fresh
// batch parse, the generator's counts — never with stored output.

// checkEditedText reports whether got is src with the byte at p replaced
// by ch: the text a single-byte edit script must leave.
func checkEditedText(got, src string, p int, ch byte) error {
	if len(got) != len(src) {
		return fmt.Errorf("text is %d bytes, want %d", len(got), len(src))
	}
	if got[p] != ch {
		return fmt.Errorf("text has %q at offset %d, want %q", got[p], p, ch)
	}
	if got[:p] != src[:p] || got[p+1:] != src[p+1:] {
		return fmt.Errorf("text differs at offset %d from the edited copy", firstDiff(got, src, p))
	}
	return nil
}

// firstDiff is the first offset other than skip where a and b differ.
func firstDiff(a, b string, skip int) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if i != skip && a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// checkSameDag compares the rendering of an incrementally maintained dag
// with that of a batch parse of the same text: batch ≡ incremental.
func checkSameDag(incr, batch string) error {
	if incr == batch {
		return nil
	}
	il, bl := strings.Split(incr, "\n"), strings.Split(batch, "\n")
	for i := 0; i < len(il) && i < len(bl); i++ {
		if il[i] != bl[i] {
			return fmt.Errorf("incremental dag differs from batch parse at line %d: %q vs %q", i+1, il[i], bl[i])
		}
	}
	return fmt.Errorf("incremental dag has %d lines, batch parse %d", len(il), len(bl))
}

// checkSameTree compares two dags node by node as FormatDag renders them:
// kind, symbol, production or text, the filtered mark and the children in
// order. FormatDag of a whole large document is quadratic in its depth, so
// the node fields are compared instead, which is the same relation.
func checkSameTree(lang *incremental.Language, a, b *incremental.Node) error {
	if a == nil || b == nil {
		if a != b {
			return fmt.Errorf("one dag is empty")
		}
		return nil
	}
	if a.Kind != b.Kind || a.Sym != b.Sym || a.Prod != b.Prod || a.Text != b.Text ||
		a.Filtered != b.Filtered || a.TermCount != b.TermCount || len(a.Kids) != len(b.Kids) {
		return fmt.Errorf("incremental dag differs from batch parse at a %s node over %d vs %d terminals",
			lang.SymName(a.Sym), a.TermCount, b.TermCount)
	}
	for i := range a.Kids {
		if err := checkSameTree(lang, a.Kids[i], b.Kids[i]); err != nil {
			return err
		}
	}
	return nil
}

func checkCount(what string, got, want int) error {
	if got != want {
		return fmt.Errorf("%s: got %d, want %d", what, got, want)
	}
	return nil
}

// stripSpace removes the whitespace between tokens: the yield of a parse
// of generated source, which has no comments.
func stripSpace(s string) string {
	return strings.Map(func(r rune) rune {
		if r == ' ' || r == '\n' || r == '\t' || r == '\r' {
			return -1
		}
		return r
	}, s)
}

// checkYield compares a tree's yield with its source minus whitespace.
func checkYield(yield, stripped string) error {
	if yield == stripped {
		return nil
	}
	return fmt.Errorf("yield differs from the source at byte %d of %d", firstDiff(yield, stripped, -1), len(stripped))
}
