// Command perfbench is zipserv's end-to-end benchmark. It wires the live
// serving stack in-process the way cmd/zipserv-server does, drives
// streaming POST /v1/generate over loopback from at most two
// connections, checks every output, and prints every metric by name and
// unit, ending with one JSON line:
//
//	go build -o perfbench . && ./perfbench --workload chat --seed 1 --seconds 10 --trace 0
//
// Run it from the repository root (perfbench/run.sh builds and runs it).
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// also runs a traced copy of the open-loop phase and layer drives of the
// engine and the codec, and reports the per-layer metrics. README.md
// lists the workloads and what each metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// Run shape.
const (
	setupRuns     = 41                      // set-ups per run; setup_s is their median
	roundLen      = 2500 * time.Millisecond // --seconds is split into rounds this long
	segmentShare  = 0.6                     // share of each round in its open-loop segment; a saturation slice takes the rest
	engineBudget  = 1500 * time.Millisecond
	coreIters     = 300
	timeoutMargin = 60 * time.Second // run time allowed beyond the traffic phases
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

func main() {
	var opt options
	var trace int
	flag.StringVar(&opt.workload, "workload", "", "workload: chat or rag-cold")
	flag.Int64Var(&opt.seed, "seed", 1, "seed of the generated traffic")
	flag.IntVar(&opt.seconds, "seconds", 10, "seconds of measured traffic")
	flag.IntVar(&trace, "trace", 0, "1: also run the traced phase and layer drives and report per-layer metrics")
	flag.Parse()
	opt.trace = trace == 1
	if trace != 0 && trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, got %d", trace))
	}
	if opt.seconds < 1 {
		fatal(fmt.Errorf("--seconds must be at least 1, got %d", opt.seconds))
	}
	// A wedged run must still end: the traffic phases take --seconds
	// (twice that with the traced copy), set-ups and layer drives fit in
	// the margin.
	timeout := time.Duration(opt.seconds) * time.Second
	if opt.trace {
		timeout *= 2
	}
	timeout += timeoutMargin
	time.AfterFunc(timeout, func() { fatal(fmt.Errorf("run exceeded %s", timeout)) })

	rep, err := run(opt)
	if err != nil {
		fatal(err)
	}
	rep.print(os.Stdout)
	if !rep.correct() {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// run sets up the stack it measures, drives it in rounds with more
// set-ups of throwaway stacks in between, and assembles the report.
func run(opt options) (*report, error) {
	w, err := workloadByName(opt.workload)
	if err != nil {
		return nil, err
	}
	t := newTraffic(w, opt.seed)
	rep := newReport(w, opt)

	var setups []float64
	setUpOnce := func() (*stack, error) {
		runtime.GC()
		st, d, err := setUp(w, t, opt.trace)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
		return st, nil
	}
	st, err := setUpOnce()
	if err != nil {
		return nil, err
	}

	// Saturation slices alternate with open-loop segments over the whole
	// run, so a stretch of host noise reaches only some of the slices
	// whose median is peak_rps, and the open loop sees every stretch. A
	// slice sends a fixed number of requests, about the rest of the round
	// on the reference VM.
	rounds := max(1, int(time.Duration(opt.seconds)*time.Second/roundLen))
	round := time.Duration(opt.seconds) * time.Second / time.Duration(rounds)
	segDur := time.Duration(float64(round) * segmentShare)
	openDur := segDur * time.Duration(rounds)
	sched := poissonSchedule(opt.seed, w.rate, openDur)
	segs, firsts := splitSchedule(sched, segDur, rounds)

	// The other set-ups are spread over the rounds like the saturation
	// slices. With --trace 1 each round ends with its open-loop segment
	// again, traced, so both copies see the same server state and
	// trace.overhead_frac compares like with like. Each set-up, slice and
	// segment starts from a collected heap, so none pays for another's
	// garbage.
	var rec *recorder
	var traced []sample
	if opt.trace {
		rec = &recorder{}
	}
	for r := 0; r < rounds; r++ {
		for k := r * (setupRuns - 1) / rounds; k < (r+1)*(setupRuns-1)/rounds; k++ {
			spare, err := setUpOnce()
			if err != nil {
				return nil, err
			}
			if err := spare.close(); err != nil {
				return nil, fmt.Errorf("closing set-up stack: %w", err)
			}
		}
		sent := rep.saturation.sent()
		runtime.GC()
		rep.saturation = append(rep.saturation, rep.measure(st, func() *phase { return closedLoop(st, t, sent, w.sliceRequests) }))
		runtime.GC()
		rep.open = append(rep.open, rep.measure(st, func() *phase {
			return openLoop(st, t, "open-loop", streamOpen, segs[r], firsts[r], segDur)
		}))
		if !opt.trace {
			continue
		}
		runtime.GC()
		st.tracer.rec.Store(rec)
		pr := rep.measure(st, func() *phase {
			return openLoop(st, t, "open-loop traced", streamTraced, segs[r], firsts[r], segDur)
		})
		st.tracer.rec.Store(nil)
		rep.traced = append(rep.traced, pr)
		traced = append(traced, pr.samples...)
	}
	if opt.trace {
		rep.unpaired = traceRequests(rec, traced)
	}
	rep.setup = newDist(setups)
	if err := st.close(); err != nil {
		return nil, fmt.Errorf("closing stack: %w", err)
	}
	if !opt.trace {
		return rep, nil
	}

	if rep.engine, err = driveEngine(w, t, rec, engineBudget); err != nil {
		return nil, err
	}
	if rep.core, err = driveCore(opt.seed, coreIters, rec); err != nil {
		return nil, err
	}
	rep.spans = rec.spans
	if err := rec.dump(opt.tracePath()); err != nil {
		return nil, fmt.Errorf("dumping spans: %w", err)
	}
	return rep, nil
}

// tracePath is where a traced run writes its spans, under the build
// directory run.sh creates.
func (opt options) tracePath() string {
	return fmt.Sprintf(".bench_build/trace/%s-%d.jsonl", opt.workload, opt.seed)
}

// summary is the final JSON line.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func writeSummary(out io.Writer, r summary) {
	b, err := json.Marshal(r)
	if err != nil {
		// Only a NaN or Inf metric can fail to marshal: a bug in a metric.
		fatal(errors.Join(errors.New("encoding summary"), err))
	}
	fmt.Fprintln(out, string(b))
}
