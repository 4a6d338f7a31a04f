// Command perfbench is the repository's benchmark. It drives three
// closed-loop workloads through the public entry points — Session.Edit and
// Session.Do on one large document, engine.ParseAll over the Table 1
// corpus, and an in-process iglrd over loopback HTTP — from a single
// goroutine, checks every output, and prints one JSON result as the last
// line of standard output. See README.md for the workloads, the metrics and
// what each layer metric is expected to move.
//
//	perfbench --workload keystroke --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of the named workload.
// With --trace 1 it records a span around every call into a layer and
// reports the per-layer metrics of all three workloads, so that every
// traced report carries every per-layer metric. With --setup-only it sets
// the workload up once and prints the seconds that took; an end-to-end run
// starts itself that way to time set-ups in fresh processes.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// workload is one closed loop of ops over state built by setup.
type workload interface {
	// setup builds everything the first op needs; it is timed as setup_s.
	// A non-nil tr records spans of the layer calls set-up makes.
	setup(tr *tracer) error
	// roundLen is the number of ops in one round. A run attempts whole
	// rounds, so every run issues the same mix of operations.
	roundLen() int
	// op performs op i, the only code on the clock. An error is a failed op.
	op(i int, tr *tracer) error
	// after runs off the clock once op i succeeded. It checks the op's
	// output, and in a traced run replays the op through single layers.
	// An error is a wrong output.
	after(i int, tr *tracer) error
	// finish checks the state the ops left behind, off the clock.
	finish() error
	// heapAt is the op count after which heap_live_mb is read. A fixed
	// count, not the end of the run, so that a program that does more ops
	// in the same seconds is not charged for the state those ops keep.
	heapAt() int
	// layers derives the per-layer metrics from tr, which holds the spans
	// and counts of traced ops out of ops [0, ops).
	layers(tr *tracer, traced, ops int) []metric
	close()
}

// workloads names each workload's constructor, in report order.
var workloads = []workloadSpec{
	{"keystroke", func(seed int64) workload { return newKeystroke(seed, keystrokeLines) }},
	{"cold_corpus", func(seed int64) workload { return newColdCorpus(seed, corpusScale) }},
	{"iglrd_typing", func(seed int64) workload { return newIglrdTyping(seed, typingSessions, typingLines) }},
}

type workloadSpec struct {
	name string
	make func(seed int64) workload
}

// setupReps is the number of set-ups timed in an end-to-end run; setup_s
// is their median.
const setupReps = 15

type metric struct {
	Name  string  `json:"-"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"-"` // samples the value summarises
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "keystroke, cold_corpus or iglrd_typing")
	seed := fs.Int64("seed", 1, "seed the inputs are made from")
	seconds := fs.Float64("seconds", 30, "seconds of ops measured per run")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for span files and run state")
	setupOnly := fs.Bool("setup-only", false, "set the workload up once and print the seconds it took")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	idx := slices.IndexFunc(workloads, func(w workloadSpec) bool { return w.name == *name })
	if idx < 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload keystroke|cold_corpus|iglrd_typing, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	runDir = *out
	budget := time.Duration(*seconds * float64(time.Second))
	// One P: the client loop, the engine's default worker pool and the
	// daemon's default shard count all follow GOMAXPROCS. With a second P,
	// CPU stolen from a small VM by its neighbours reaches the ops through
	// cross-CPU wake-ups, and iglrd_typing's median latency wandered by a
	// quarter between runs; multi-core scaling is outside this benchmark.
	runtime.GOMAXPROCS(1)
	if *setupOnly {
		return setupOnce(workloads[idx], *seed, stdout, stderr)
	}

	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%g trace=%d nproc=%d GOMAXPROCS=%d go=%s\n",
		*name, *seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	var (
		res  *result
		werr error
	)
	if *trace == 0 {
		res, werr = runEndToEnd(idx, *seed, budget, stdout)
	} else {
		res, werr = runTraced(idx, *seed, budget, *out, stdout)
	}
	var wrong *wrongOutput
	if werr != nil && !errors.As(werr, &wrong) {
		fmt.Fprintf(stderr, "perfbench: %v\n", werr)
		return 2
	}
	if wrong != nil {
		fmt.Fprintf(stderr, "perfbench: WRONG OUTPUT: %v\n", wrong.err)
		res.Correct = false
	}
	fmt.Fprintf(stdout, "ops: attempted %d, failed %d, outputs %s\n",
		res.Attempted, res.Failed, map[bool]string{true: "correct", false: "WRONG"}[res.Correct])
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// runDir holds per-run state (the daemon's persist directories); it lies
// inside the checkout.
var runDir string

// wrongOutput marks an error as a failed output check, as opposed to a
// benchmark that could not run.
type wrongOutput struct{ err error }

func (w *wrongOutput) Error() string { return w.err.Error() }

func wrong(err error) error { return &wrongOutput{err} }

// phase is the record of a set of ops.
type phase struct {
	lat    []float64 // ms per op
	d      delta     // summed over the ops only
	failed int
}

func (p *phase) record(c0, c1 counters) {
	p.d.add(c0, c1)
	p.lat = append(p.lat, ms(c1.wall.Sub(c0.wall)))
}

func (p *phase) completed() int { return len(p.lat) - p.failed }

// measured is the record of a run's ops: the untraced ones, and with a
// tracer the traced ones.
type measured struct {
	plain, traced phase
	ops           int    // ops attempted, the index of the next op
	heap          uint64 // live heap bytes after heapAt ops (0: not reached)
}

// runOps runs whole rounds of ops until the ops have been on the clock for
// budget. A non-nil between runs after each round, off the clock, and is
// told how long the ops have been on the clock so far. Given a tracer, rounds alternate two untraced and two traced, so
// that traced and untraced ops run under the same conditions and both see
// the odd and the even steps of scripts that advance one step a round.
// Checks and traced replays run between ops, off the clock.
func runOps(w workload, budget time.Duration, tr *tracer, between func(onClock time.Duration) error) (*measured, error) {
	r := &measured{}
	for round := 0; r.plain.d.wall+r.traced.d.wall < budget; round++ {
		p, rtr := &r.plain, (*tracer)(nil)
		if tr != nil && round/2%2 == 1 {
			p, rtr = &r.traced, tr
		}
		for j := 0; j < w.roundLen(); j++ {
			i := r.ops
			r.ops++
			c0 := readCounters()
			err := w.op(i, rtr)
			c1 := readCounters()
			p.record(c0, c1)
			if tr == nil && i+1 == w.heapAt() {
				r.heap = liveHeapBytes()
			}
			if err != nil {
				p.failed++
				fmt.Fprintf(os.Stderr, "perfbench: op %d failed: %v\n", i, err)
				continue
			}
			if err := w.after(i, rtr); err != nil {
				return r, wrong(fmt.Errorf("op %d: %w", i, err))
			}
		}
		if between != nil {
			if err := between(r.plain.d.wall + r.traced.d.wall); err != nil {
				return r, err
			}
		}
	}
	return r, nil
}

// setupOnce is the child process of a timed set-up: it sets the workload
// up, prints the seconds that took, and tears it down.
func setupOnce(spec workloadSpec, seed int64, stdout, stderr io.Writer) int {
	w := spec.make(seed)
	defer w.close()
	start := time.Now()
	if err := w.setup(nil); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s set-up: %v\n", spec.name, err)
		return 2
	}
	fmt.Fprintf(stdout, "%.9f\n", time.Since(start).Seconds())
	return 0
}

// setupTimer times set-ups of a workload, each in a fresh process of this
// program, so that every one of them builds the languages and starts from
// an empty heap.
type setupTimer struct {
	spec   workloadSpec
	seed   int64
	setups []float64
}

func (st *setupTimer) time() error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe, "--setup-only", "--workload", st.spec.name,
		"--seed", strconv.FormatInt(st.seed, 10), "--out", runDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("%s set-up: %w", st.spec.name, err)
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
	if err != nil {
		return fmt.Errorf("%s set-up printed %q", st.spec.name, out)
	}
	st.setups = append(st.setups, v)
	return nil
}

// runEndToEnd sets the workload up, measures ops on it with tracing off,
// and reports the end-to-end metrics. setup_s is the median of setupReps
// set-ups in fresh processes: one before the ops and the others spread
// over the run between rounds, off the clock, so that the median samples
// the host over the whole run and not over one moment of it.
func runEndToEnd(idx int, seed int64, budget time.Duration, stdout io.Writer) (*result, error) {
	spec := workloads[idx]
	st := &setupTimer{spec: spec, seed: seed}
	if err := st.time(); err != nil {
		return nil, err
	}
	w := spec.make(seed)
	defer w.close()
	if err := w.setup(nil); err != nil {
		return nil, fmt.Errorf("%s set-up: %w", spec.name, err)
	}
	spaced := func(onClock time.Duration) error {
		if len(st.setups) < setupReps && onClock >= budget*time.Duration(len(st.setups))/setupReps {
			return st.time()
		}
		return nil
	}
	runtime.GC()
	r, err := runOps(w, budget, nil, spaced)
	for err == nil && len(st.setups) < setupReps {
		err = st.time()
	}
	if err == nil {
		if ferr := w.finish(); ferr != nil {
			err = wrong(ferr)
		}
	}
	if r.heap == 0 {
		r.heap = liveHeapBytes() // w, still referenced, holds the documents
	}
	p := &r.plain
	res := &result{Correct: true, Attempted: r.ops, Failed: p.failed, Metrics: map[string]metric{}}
	n := float64(len(p.lat))
	ms := []metric{
		{"setup_s", "s", quantile(st.setups, 0.5), len(st.setups)},
		{"latency_p50_ms", "ms", quantile(p.lat, 0.5), len(p.lat)},
		{"latency_p90_ms", "ms", quantile(p.lat, 0.9), len(p.lat)},
		{"ops_per_s", "1/s", float64(p.completed()) / p.d.wall.Seconds(), p.completed()},
		{"cpu_ms_per_op", "ms", ms(p.d.cpu) / n, len(p.lat)},
		{"alloc_mb_per_op", "MB", float64(p.d.allocBytes) / 1e6 / n, len(p.lat)},
		{"heap_live_mb", "MB", float64(r.heap) / 1e6, 1},
	}
	report(stdout, spec.name, ms, res)
	return res, err
}

// runTraced measures every workload, the named one first: each is set up
// once and runs for a third of the budget, alternating untraced and traced
// rounds. It reports its per-layer metrics under its own name, with the
// tracing overhead as the difference between the median latencies of the
// traced and the untraced ops.
func runTraced(idx int, seed int64, budget time.Duration, out string, stdout io.Writer) (*result, error) {
	res := &result{Correct: true, Metrics: map[string]metric{}}
	order := []int{idx}
	for i := range workloads {
		if i != idx {
			order = append(order, i)
		}
	}
	for _, i := range order {
		spec := workloads[i]
		tr := newTracer()
		ms, attempted, failed, err := traceOne(spec.name, spec.make(seed), budget/3, tr)
		res.Attempted += attempted
		res.Failed += failed
		report(stdout, spec.name, ms, res)
		path := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.jsonl", spec.name, seed))
		if werr := tr.write(path); werr != nil {
			return res, werr
		}
		fmt.Fprintf(stdout, "%-14s %d spans written to %s\n", spec.name, len(tr.spans), path)
		if err != nil {
			return res, err
		}
	}
	return res, nil
}

func traceOne(name string, w workload, budget time.Duration, tr *tracer) ([]metric, int, int, error) {
	defer w.close()
	runtime.GC()
	if err := w.setup(tr); err != nil {
		return nil, 0, 0, fmt.Errorf("%s set-up: %w", name, err)
	}
	runtime.GC()
	r, err := runOps(w, budget, tr, nil)
	attempted, failed := r.ops, r.plain.failed+r.traced.failed
	if err != nil {
		return nil, attempted, failed, err
	}
	if err := w.finish(); err != nil {
		return nil, attempted, failed, wrong(err)
	}
	plain, traced := r.plain.lat, r.traced.lat
	n := float64(len(plain))
	ms := w.layers(tr, len(traced), r.ops)
	ms = append(ms,
		metric{"gc_cycles_per_op", "count", float64(r.plain.d.gcCycles) / n, len(plain)},
		metric{"gc_cpu_ms_per_op", "ms", r.plain.d.gcCPU * 1e3 / n, len(plain)},
		metric{"trace_overhead_ms", "ms", quantile(traced, 0.5) - quantile(plain, 0.5), len(traced)},
	)
	for i := range ms {
		ms[i].Name = name + "." + ms[i].Name
	}
	return ms, attempted, failed, nil
}

// report prints each metric by name, unit and sample count, and adds it to
// the result.
func report(w io.Writer, workload string, ms []metric, res *result) {
	for _, m := range ms {
		fmt.Fprintf(w, "%-14s %-40s %14.6g %-8s n=%d\n", workload, m.Name, m.Value, m.Unit, m.N)
		res.Metrics[m.Name] = m
	}
}
