package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"zipserv/internal/serve"
)

// phaseResult is a phase plus the /v1/stats snapshots around it and the
// peak live heap during it.
type phaseResult struct {
	*phase
	before, after serve.Stats
	heapPeak      uint64
}

// delta returns a counter's growth over the phase.
func (pr *phaseResult) delta(f func(serve.Stats) int64) int64 { return f(pr.after) - f(pr.before) }

// ok returns the samples that passed every check.
func (pr *phaseResult) ok() []*sample {
	var out []*sample
	for i := range pr.samples {
		if !pr.samples[i].failed {
			out = append(out, &pr.samples[i])
		}
	}
	return out
}

// phaseSet is the slices of one kind of traffic, in the order they ran.
type phaseSet []*phaseResult

// ok returns the samples of every slice that passed every check.
func (ps phaseSet) ok() []*sample {
	var out []*sample
	for _, pr := range ps {
		out = append(out, pr.ok()...)
	}
	return out
}

func (ps phaseSet) sent() int {
	n := 0
	for _, pr := range ps {
		n += pr.sent
	}
	return n
}

func (ps phaseSet) failed() int {
	n := 0
	for _, pr := range ps {
		n += pr.failed
	}
	return n
}

func (ps phaseSet) dur() time.Duration {
	var d time.Duration
	for _, pr := range ps {
		d += pr.dur
	}
	return d
}

// delta returns a counter's growth over the slices.
func (ps phaseSet) delta(f func(serve.Stats) int64) int64 {
	var d int64
	for _, pr := range ps {
		d += pr.delta(f)
	}
	return d
}

func (ps phaseSet) heapPeak() uint64 {
	var b uint64
	for _, pr := range ps {
		b = max(b, pr.heapPeak)
	}
	return b
}

// lateness is the worst delay of an open-loop send past its due time.
func (ps phaseSet) lateness() time.Duration {
	var d time.Duration
	for _, pr := range ps {
		d = max(d, pr.lateness)
	}
	return d
}

type report struct {
	w          *workload
	opt        options
	commit     string
	setup      dist
	saturation phaseSet // closed-loop slices, alternating with the open-loop segments
	open       phaseSet
	traced     phaseSet // --trace 1: the open-loop segments again, traced
	engine     *engineDrive
	core       *coreDrive
	spans      []span
	unpaired   int // traced requests whose router.submit span could not be paired
	violations []string
}

func newReport(w *workload, opt options) *report {
	return &report{w: w, opt: opt, commit: commitID()}
}

func (rep *report) violate(format string, args ...any) {
	rep.violations = append(rep.violations, fmt.Sprintf(format, args...))
}

func (rep *report) correct() bool { return len(rep.violations) == 0 }

// measure runs a phase between two /v1/stats snapshots and applies the
// output checks: each request's own, then the stats deltas against what
// was sent.
func (rep *report) measure(st *stack, run func() *phase) *phaseResult {
	pr := &phaseResult{}
	var err error
	if pr.before, err = st.stats(); err != nil {
		rep.violate("stats before phase: %v", err)
	}
	heap := startHeapSampler()
	pr.phase = run()
	pr.heapPeak = heap.Stop()
	if pr.after, err = st.stats(); err != nil {
		rep.violate("stats after phase %s: %v", pr.name, err)
	}
	for _, err := range pr.errs {
		rep.violate("%s request: %v", pr.name, err)
	}
	sent := int64(pr.sent)
	if sent == 0 {
		rep.violate("%s: no request sent", pr.name)
	}
	if d := pr.delta(func(s serve.Stats) int64 { return s.Completed }); d != sent {
		rep.violate("%s: /v1/stats completed grew by %d, %d requests sent", pr.name, d, sent)
	}
	if d := pr.delta(func(s serve.Stats) int64 { return s.OutputTokens }); d != pr.outTokens {
		rep.violate("%s: /v1/stats output_tokens grew by %d, requests asked for %d", pr.name, d, pr.outTokens)
	}
	if rep.w.wantCached && pr.delta(func(s serve.Stats) int64 { return s.DecompressClaims }) <= 0 {
		rep.violate("%s: /v1/stats decompress_claims did not grow", pr.name)
	}
	return pr
}

// metric is one reported number. note says which percentile and how many
// samples a timing rests on.
type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

// printedOnly names the end-to-end metrics left out of the JSON line,
// which carries the metrics BENCHMARK.json gates. peak_rps and the tails
// of same-code runs on the 2-vCPU reference VM spread past any bound the
// benchmark may set (README.md); error_rate is 0 on a healthy run, and
// the JSON line's failed/attempted carry it.
var printedOnly = map[string]bool{"peak_rps": true, "latency_tail_ms": true, "ttft_tail_ms": true, "error_rate": true}

// withNote appends to the metric's note.
func (m metric) withNote(s string) metric {
	m.note += ", " + s
	return m
}

func p50(name, unit string, xs []float64) metric {
	return metric{name, newDist(xs).median(), unit, fmt.Sprintf("p50 of n=%d", len(xs))}
}

func tailMetric(name, unit string, xs []float64) metric {
	v, p := tail(xs)
	return metric{name, v, unit, fmt.Sprintf("p%.4g of n=%d", p, len(xs))}
}

// ratio returns num/den, or 0 when nothing was attempted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// values maps f over the samples' outcomes.
func values(xs []*sample, f func(*outcome) float64) []float64 {
	out := make([]float64, len(xs))
	for i, s := range xs {
		out[i] = f(&s.o)
	}
	return out
}

// phases returns the kinds of traffic the run measured.
func (rep *report) phases() []phaseSet {
	out := []phaseSet{rep.saturation, rep.open}
	if rep.traced != nil {
		out = append(out, rep.traced)
	}
	return out
}

func (rep *report) attempted() int {
	n := 0
	for _, ps := range rep.phases() {
		n += ps.sent()
	}
	return n
}

func (rep *report) failed() int {
	n := 0
	for _, ps := range rep.phases() {
		n += ps.failed()
	}
	return n
}

// endToEnd returns the metrics a client of the server sees, from the
// untraced phases. latency and TTFT run from each request's due time.
func (rep *report) endToEnd() []metric {
	ok := rep.open.ok()
	lat := values(ok, (*outcome).latencyMs)
	ttft := values(ok, (*outcome).ttftMs)
	met := 0
	for _, s := range ok {
		if s.o.ttft() <= rep.w.ttftLimit && s.o.latency() <= rep.w.latencyLimit {
			met++
		}
	}
	var rates []float64
	for _, pr := range rep.saturation {
		rates = append(rates, pr.rate())
	}
	sat := newDist(rates)
	return []metric{
		{"setup_s", rep.setup.median(), "s", fmt.Sprintf("median of %d set-ups", len(rep.setup))},
		{"peak_rps", sat.median(), "1/s", fmt.Sprintf("median of %d saturation slices of %d requests (%.5g to %.5g)",
			len(sat), rep.w.sliceRequests, sat[0], sat[len(sat)-1])},
		p50("latency_p50_ms", "ms", lat),
		tailMetric("latency_tail_ms", "ms", lat),
		p50("ttft_p50_ms", "ms", ttft),
		tailMetric("ttft_tail_ms", "ms", ttft),
		{"slo_attainment", ratio(float64(met), float64(rep.open.sent())), "ratio",
			fmt.Sprintf("%d of %d sent within ttft %s and latency %s", met, rep.open.sent(), rep.w.ttftLimit, rep.w.latencyLimit)},
		{"error_rate", ratio(float64(rep.failed()), float64(rep.attempted())), "ratio",
			fmt.Sprintf("%d of %d attempted", rep.failed(), rep.attempted())},
		{"heap_peak_mb", float64(max(rep.saturation.heapPeak(), rep.open.heapPeak())) / (1 << 20), "MB", "peak live heap over the untraced phases"},
	}
}

// perLayer returns the per-layer metrics of the traced run.
func (rep *report) perLayer() []metric {
	tr := rep.traced
	ok := tr.ok()
	durs := make([]int64, len(rep.spans))
	for i, s := range rep.spans {
		durs[i] = s.dur()
	}
	self := selfTimes(rep.spans)
	spanMs := func(name string) []float64 { return byName(rep.spans, durs, name, 1e6) }
	spanUs := func(name string) []float64 { return byName(rep.spans, durs, name, 1e3) }

	var overhead []float64
	var bytes, promptTokens float64
	dropped := 0
	for _, s := range ok {
		overhead = append(overhead, float64(time.Duration(s.o.done-s.o.send)-s.o.res.WallDuration)/1e6)
		bytes += float64(s.o.bytes)
		promptTokens += float64(s.promptLen)
		dropped += eventsDropped(&s.o)
	}
	completed := float64(tr.delta(func(s serve.Stats) int64 { return s.Completed }))
	perReq := func(f func(serve.Stats) int64) float64 { return ratio(float64(tr.delta(f)), completed) }
	last := tr[len(tr)-1].after
	compression := last.KVCompressionRatio
	if !rep.w.compressedCache {
		compression = ratio(float64(rep.engine.exportOrig), float64(rep.engine.exportWire))
	}
	late := max(rep.open.lateness(), tr.lateness()).Seconds() * 1e3
	untracedP50 := newDist(values(rep.open.ok(), (*outcome).latencyMs)).median()
	tracedP50 := newDist(values(ok, (*outcome).latencyMs)).median()
	e, c := rep.engine, rep.core
	return []metric{
		p50("httpapi.overhead_ms_p50", "ms", overhead),
		p50("httpapi.self_us_p50", "us", byName(rep.spans, self, "httpapi.request", 1e3)).
			withNote(fmt.Sprintf("%d requests unpaired", rep.unpaired)),
		{"httpapi.response_bytes_mean", ratio(bytes, float64(len(ok))), "bytes", fmt.Sprintf("over %d responses", len(ok))},
		p50("router.submit_us_p50", "us", spanUs("router.submit")),
		tailMetric("router.submit_us_tail", "us", spanUs("router.submit")),
		{"router.rejected", float64(tr.delta(func(s serve.Stats) int64 { return s.Rejected })), "count", "/v1/stats delta"},
		p50("replica.queue_ms_p50", "ms", spanMs("replica.queue")),
		p50("replica.prefill_ms_p50", "ms", spanMs("replica.prefill")),
		p50("replica.decode_ms_p50", "ms", spanMs("replica.decode")),
		{"replica.decode_steps_per_req", perReq(func(s serve.Stats) int64 { return s.DecodeSteps }), "count/req", "/v1/stats delta"},
		{"replica.prefill_tokens_per_req", perReq(func(s serve.Stats) int64 { return s.PrefillTokens }), "count/req", "/v1/stats delta"},
		{"replica.peak_concurrency", float64(last.PeakConcurrency), "count", "/v1/stats"},
		{"replica.events_dropped", float64(dropped), "count", fmt.Sprintf("over %d requests", len(ok))},
		p50("engine.admit_us_p50", "us", e.admit),
		p50("engine.prefill_us_p50", "us", e.prefill),
		p50("engine.decode_step_us_p50", "us", e.decodeStep),
		p50("engine.export_us_p50", "us", e.export),
		p50("engine.import_us_p50", "us", e.imp),
		{"kvcache.prefix_hit_ratio", perReq(func(s serve.Stats) int64 { return s.PrefixHits }), "ratio", "hits per completed request"},
		{"kvcache.tokens_saved_ratio", ratio(float64(tr.delta(func(s serve.Stats) int64 { return s.PrefixTokensSaved })), promptTokens), "ratio", "of prompt tokens"},
		{"kvcache.thaws_per_req", perReq(func(s serve.Stats) int64 { return s.DecompressClaims }), "count/req", "/v1/stats delta"},
		{"kvcache.compression_ratio", compression, "ratio", compressionNote(rep.w)},
		{"kvcache.handoff_bytes_per_req", ratio(float64(e.exportWire), float64(len(e.export))), "bytes/req",
			fmt.Sprintf("compressed KV per handoff, %d engine-drive handoffs", len(e.export))},
		{"kvcache.codec_fallbacks", float64(tr.delta(func(s serve.Stats) int64 { return s.CodecFallbacks })), "count", "/v1/stats delta"},
		p50("core.compress_us_p50", "us", c.compress),
		p50("core.decompress_us_p50", "us", c.decompress),
		{"core.compress_allocs", c.compressAllocs, "count", "per call"},
		{"core.decompress_allocs", c.decompressAllocs, "count", "per call"},
		{"loadgen.lateness_ms_max", late, "ms", "worst send past its due time"},
		{"trace.overhead_frac", ratio(tracedP50, untracedP50) - 1, "ratio", fmt.Sprintf("traced latency p50 %.4g ms vs untraced %.4g ms", tracedP50, untracedP50)},
	}
}

func compressionNote(w *workload) string {
	if w.compressedCache {
		return "cold prefix blocks, /v1/stats"
	}
	return "handoff exports, engine drive"
}

// print writes the human-readable report and then the result JSON line.
func (rep *report) print(out io.Writer) {
	fmt.Fprintf(out, "perfbench workload=%s seed=%d seconds=%d trace=%v GOMAXPROCS=%d commit=%s %s\n",
		rep.w.name, rep.opt.seed, rep.opt.seconds, rep.opt.trace, runtime.GOMAXPROCS(0), rep.commit, runtime.Version())
	fmt.Fprintf(out, "open loop: %.0f req/s Poisson; SLO ttft <= %s, latency <= %s\n",
		rep.w.rate, rep.w.ttftLimit, rep.w.latencyLimit)
	for _, ps := range rep.phases() {
		fmt.Fprintf(out, "phase %-17s sent %6d  ok %6d  failed %d  over %s in %d slices\n",
			ps[0].name, ps.sent(), ps.sent()-ps.failed(), ps.failed(), ps.dur(), len(ps))
	}
	metrics := rep.endToEnd()
	printMetrics(out, "end to end", metrics)
	if rep.opt.trace {
		layer := rep.perLayer()
		printMetrics(out, "per layer (traced run)", layer)
		fmt.Fprintf(out, "spans: %d written to %s\n", len(rep.spans), rep.opt.tracePath())
		metrics = layer
	}
	for _, v := range rep.violations {
		fmt.Fprintln(out, "CHECK FAILED:", v)
	}
	res := summary{Correct: rep.correct(), Attempted: rep.attempted(), Failed: rep.failed(), Metrics: map[string]metricValue{}}
	for _, m := range metrics {
		if !printedOnly[m.name] {
			res.Metrics[m.name] = metricValue{m.value, m.unit}
		}
	}
	writeSummary(out, res)
}

func printMetrics(out io.Writer, title string, ms []metric) {
	fmt.Fprintf(out, "%s:\n", title)
	for _, m := range ms {
		note := m.note
		if printedOnly[m.name] {
			note += " (printed only)"
		}
		fmt.Fprintf(out, "  %-32s %14.6g %-10s %s\n", m.name, m.value, m.unit, note)
	}
}

// commitID names the code under test: the git revision when the build
// recorded one, otherwise a digest of the source files under the working
// directory (a checkout without git metadata).
func commitID() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "-dirty"
			}
			return rev
		}
	}
	h := sha256.New()
	var files []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return nil
		case d.IsDir() && p != "." && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod"):
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", p, len(b))
		h.Write(b)
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:12]
}
