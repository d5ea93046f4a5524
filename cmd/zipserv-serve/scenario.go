package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"time"

	"zipserv"
)

// scenario is one §6.5-style ablation: a fixed workload replayed under
// rival configurations of the live stack, one table row per variant.
// Every workload is fixed (it does not read -requests, -rate, -prompt,
// -out or -seed), so each scenario's numbers are comparable run to run
// and across commits.
type scenario struct {
	name     string // the -scenario value and the CSV section name
	about    string // the workload, for the stdout header
	workload workload
	// engine adjusts the deployment's engine config once, before any
	// replica is built; nil keeps it.
	engine   func(zipserv.ServingConfig) (zipserv.ServingConfig, error)
	label    string // header of the variant-label column
	variants []variant
	columns  []column
	// win states the scenario's requirements on its rows, in variant
	// order; -require-win turns a violated one into an error. nil for
	// informational scenarios.
	win func(g *winGate, rows []*outcome)
}

// workload is one request set. With waves, the fleet starts first and
// each wave is submitted live, in its index order, and drained before
// the next wave goes in. Without, every request is submitted in order
// before the fleet starts: with no scheduler running, router dispatch
// sees only deterministic queue depths, so every replay deals the same
// hands.
type workload struct {
	reqs  []zipserv.LiveRequest
	waves [][]int
}

// variant is one configuration a scenario replays its workload under.
// Each replica gets a fresh engine and a queue sized for the whole
// workload.
type variant struct {
	label    string
	replicas []zipserv.LiveConfig // one runs a bare server; more run behind a router
	pooled   bool                 // route by the replicas' prefill/decode pools (NewPooledLiveRouter)
	affinity *zipserv.LiveAffinityConfig
	health   *zipserv.LiveHealthConfig
	// faults is a fault-plan script; each replica runs its own
	// projection of it. Under a plan, failed requests are part of the
	// outcome instead of aborting the run.
	faults string
	// replay runs the variant a second time; the row then records
	// whether both runs produced the same per-request schedule.
	replay bool
}

// outcome is one variant's run: what a column or win predicate reads.
type outcome struct {
	variant
	reqs    []zipserv.LiveRequest
	results []zipserv.LiveResult // in submission-index order
	stats   zipserv.LiveStats
	rerun   []zipserv.LiveResult // the second run of a replayed variant
}

// column is one table column: its header (the CSV name) and how to
// render its cell from an outcome. The same cells go to stdout and CSV.
type column struct {
	name   string
	format string
	value  func(*outcome) any
}

// Shared columns.
var (
	ttftP50       = column{"ttft_p50_s", "%.6f", func(o *outcome) any { return o.ttft(0.50, nil) }}
	ttftP99       = column{"ttft_p99_s", "%.6f", func(o *outcome) any { return o.ttft(0.99, nil) }}
	tpotP50       = column{"decode_tpot_p50_s", "%.6f", func(o *outcome) any { return o.decodeTPOT(0.50) }}
	tpotP99       = column{"decode_tpot_p99_s", "%.6f", func(o *outcome) any { return o.decodeTPOT(0.99) }}
	decodeGap     = column{"max_decode_gap_s", "%.6f", func(o *outcome) any { return o.stats.MaxDecodeGap }}
	goodput       = column{"goodput_rps", "%.3f", func(o *outcome) any { return o.stats.Goodput }}
	completed     = column{"completed", "%d", func(o *outcome) any { return o.stats.Completed }}
	prefillTokens = column{"prefill_tokens", "%d", func(o *outcome) any { return o.stats.PrefillTokens }}
	prefixHits    = column{"prefix_hits", "%d", func(o *outcome) any { return o.stats.PrefixHits }}
	tokensSaved   = column{"prefix_tokens_saved", "%d", func(o *outcome) any { return o.stats.PrefixTokensSaved }}
)

// chaosPlan is the scripted failure the chaos scenario drives: one
// replica crashes mid-run on its own virtual clock, another limps
// through the whole run at a 6x step-time dilation. Every trigger is a
// pure function of replica-local virtual time, so replaying the plan
// against the same workload reproduces the same failure schedule.
const chaosPlan = `seed 42
slow replica=2 at=0 factor=6
crash replica=1 at=0.5
`

// The compress scenario's KV plan: blocks of 16 tokens
// (kvcache.DefaultBlockTokens), 14 of them.
const (
	blockTokens = 16
	planBlocks  = 14
)

var scenarios = []scenario{
	{
		// The reuse win of copy-on-write prefix caching: every request
		// repeats one long prompt prefix, as system prompts and few-shot
		// templates do.
		name:     "prefix",
		about:    "shared-prefix workload, 1024-token common prefix + unique 128-token suffix, output 64, 100 req/s",
		workload: prefixWorkload(),
		label:    "mode",
		variants: []variant{
			{label: "prefix-off", replicas: []zipserv.LiveConfig{{}}},
			{label: "prefix-on", replicas: []zipserv.LiveConfig{{PrefixCache: true}}},
		},
		columns: []column{ttftP50, ttftP99, prefillTokens, prefixHits, tokensSaved, goodput},
		win: func(g *winGate, rows []*outcome) {
			off, on := rows[0].ttft(0.50, nil), rows[1].ttft(0.50, nil)
			g.require(on <= off, "prefix-on TTFT p50 %.6fs > prefix-off %.6fs", on, off)
		},
	},
	{
		// The cadence win of chunked prefill: monolithic prefill wedges a
		// full-prompt stall between decode steps for every long prompt;
		// a chunk budget bounds it. The label is the budget in tokens,
		// 0 for monolithic.
		name:     "chunking",
		about:    "chunking mix, 100 req/s Poisson, decoders 128/128 with every 5th prompt 2048 tokens",
		workload: chunkingWorkload(),
		label:    "chunk_tokens",
		variants: []variant{
			{label: "0", replicas: []zipserv.LiveConfig{{}}},
			{label: "64", replicas: []zipserv.LiveConfig{{PrefillChunkTokens: 64}}},
			{label: "256", replicas: []zipserv.LiveConfig{{PrefillChunkTokens: 256}}},
			{label: "1024", replicas: []zipserv.LiveConfig{{PrefillChunkTokens: 1024}}},
		},
		columns: []column{tpotP50, tpotP99, decodeGap, goodput},
	},
	{
		// The SLO win of deriving the operating point per iteration: the
		// regime switch (deep decode batch during a burst, idle drain
		// between bursts) is where any static budget picks one regime to
		// lose. The adaptive controllers run a 30 ms step-time target.
		name:     "adaptive",
		about:    "adaptive mix, bursts of 8 every 0.7s: 6 decoders sharing a 512-token prefix + 2 long 2048-token prompts",
		workload: burstMix(64, 2, 8, 0),
		label:    "mode",
		variants: []variant{
			{label: "static-64", replicas: []zipserv.LiveConfig{{PrefillChunkTokens: 64, PrefixCache: true}}},
			{label: "static-256", replicas: []zipserv.LiveConfig{{PrefillChunkTokens: 256, PrefixCache: true}}},
			{label: "static-1024", replicas: []zipserv.LiveConfig{{PrefillChunkTokens: 1024, PrefixCache: true}}},
			{label: "adaptive", replicas: []zipserv.LiveConfig{{
				AdaptiveChunking:    true,
				TargetStepTime:      0.030,
				PrefixCache:         true,
				AdaptivePrefixCache: true,
			}}},
		},
		columns: []column{
			tpotP50, tpotP99, decodeGap, goodput,
			{"chunk_budget_tokens", "%d", func(o *outcome) any { return o.stats.ChunkBudget }},
			{"cache_pool_target_blocks", "%d", func(o *outcome) any { return o.stats.CachePoolTarget }},
		},
		win: func(g *winGate, rows []*outcome) {
			best := math.Inf(1)
			for _, o := range rows[:3] {
				best = min(best, o.decodeTPOT(0.99))
			}
			adaptive := rows[3].decodeTPOT(0.99)
			g.require(adaptive <= best, "adaptive decode TPOT p99 %.6fs > best static %.6fs", adaptive, best)
		},
	},
	{
		// The capacity win of freezing cold prefix blocks into the
		// TCA-TBE store instead of parking them physically. Each flusher's
		// footprint is the whole plan, so with plain parking the prefix
		// is gone by the next shared request, while the compressed cache
		// holds it outside the physical budget and restores it on claim
		// (the decompression is priced into that prefill). MaxBatch 1
		// serialises the trace so the pressure pattern is deterministic.
		name:     "compress",
		about:    "capacity-pressure workload, shared-prefix requests (64-token prefix + 16 suffix) interleaved with 192-token flushers on a 14-block KV plan",
		workload: compressWorkload(),
		engine:   tinyKVPlan,
		label:    "mode",
		variants: []variant{
			{label: "compress-off", replicas: []zipserv.LiveConfig{{MaxBatch: 1, PrefixCache: true}}},
			{label: "compress-on", replicas: []zipserv.LiveConfig{{MaxBatch: 1, PrefixCache: true, CompressedCache: true}}},
		},
		columns: []column{
			ttftP50, ttftP99, prefillTokens, prefixHits, tokensSaved,
			{"compressed_kv_blocks", "%d", func(o *outcome) any { return o.stats.CompressedKVBlocks }},
			{"compression_ratio", "%.4f", func(o *outcome) any { return o.stats.KVCompressionRatio }},
			{"decompress_claims", "%d", func(o *outcome) any { return o.stats.DecompressClaims }},
			goodput,
		},
		win: func(g *winGate, rows []*outcome) {
			off, on := rows[0].stats, rows[1].stats
			g.require(on.PrefixHits > off.PrefixHits, "compress-on prefix hits %d <= compress-off %d", on.PrefixHits, off.PrefixHits)
			g.require(on.PrefixTokensSaved >= off.PrefixTokensSaved, "compress-on tokens saved %d < compress-off %d", on.PrefixTokensSaved, off.PrefixTokensSaved)
		},
	},
	{
		// The interference win of keeping long prefills off the decode
		// replica: co-located fleets interleave every long prefill with
		// their decode batch; the disaggregated fleet runs prompts to
		// first token on one replica and hands each sequence, KV
		// compressed through the codec, to the other.
		name:     "disagg",
		about:    "disagg mix, bursts of 8 every 0.7s: 5 chat decoders sharing a 512-token prefix + 3 long 2048-token prompts staggered 0.15s apart, 2 replicas per fleet",
		workload: burstMix(48, 3, 4, 0.15),
		label:    "fleet",
		variants: []variant{
			{label: "colo-mono", replicas: copies(2, zipserv.LiveConfig{PrefixCache: true})},
			{label: "colo-chunk256", replicas: copies(2, zipserv.LiveConfig{PrefixCache: true, PrefillChunkTokens: 256})},
			{label: "colo-chunk1024", replicas: copies(2, zipserv.LiveConfig{PrefixCache: true, PrefillChunkTokens: 1024})},
			// The prefill replica runs flat out, so every handoff is
			// queued ahead of the decode replica's clock; the decode
			// replica paces against the wall clock, so each import lands
			// at its virtual ready time instead of wherever the goroutine
			// race left the clock. The co-located fleets have no
			// cross-replica events, so pacing would only slow them down.
			{label: "disagg-1p1d", pooled: true, replicas: []zipserv.LiveConfig{
				{PrefixCache: true, Pool: zipserv.LivePoolPrefill},
				{PrefixCache: true, Pool: zipserv.LivePoolDecode, TimeScale: 0.5},
			}},
		},
		columns: []column{
			tpotP50, tpotP99, decodeGap, goodput, completed,
			{"handoffs", "%d", func(o *outcome) any { return o.stats.Handoffs }},
			{"handoff_bytes", "%d", func(o *outcome) any { return o.stats.HandoffBytes }},
			{"handoff_failures", "%d", func(o *outcome) any { return o.stats.HandoffFailures }},
		},
		win: func(g *winGate, rows []*outcome) {
			colo, disagg := rows[0], rows[3]
			for _, o := range rows[1:3] {
				if o.decodeTPOT(0.99) < colo.decodeTPOT(0.99) {
					colo = o
				}
			}
			g.require(disagg.decodeTPOT(0.99) < colo.decodeTPOT(0.99),
				"disaggregated decode TPOT p99 %.6fs >= best co-located (%s) %.6fs",
				disagg.decodeTPOT(0.99), colo.label, colo.decodeTPOT(0.99))
			g.require(disagg.stats.Completed >= colo.stats.Completed,
				"disaggregation completed %d requests, co-located %d", disagg.stats.Completed, colo.stats.Completed)
		},
	},
	{
		// The locality win of steering requests to the replica whose
		// prefix-trie digest already covers their prompt. Waves are live
		// and drained before the next starts, so the replicas' published
		// digests are warm when the router scores the next wave.
		name:     "affinity",
		about:    "affinity burst, 8 tenants x 4 waves x 2 requests, 512-token tenant prefix + 64 suffix, 4 replicas",
		workload: affinityWorkload(),
		label:    "routing",
		variants: []variant{
			{label: "least-loaded", replicas: copies(4, zipserv.LiveConfig{PrefixCache: true})},
			// A generous band: tenant pinning concentrates load a little
			// by design, and spilling on every transient imbalance would
			// throw the cache away.
			{
				label:    "affinity",
				replicas: copies(4, zipserv.LiveConfig{PrefixCache: true}),
				affinity: &zipserv.LiveAffinityConfig{LoadBand: 16},
			},
		},
		columns: []column{
			ttftP50, ttftP99, prefixHits, tokensSaved,
			{"prefix_affinity_hits", "%d", func(o *outcome) any { return o.stats.PrefixAffinityHits }},
			{"affinity_spills", "%d", func(o *outcome) any { return o.stats.AffinitySpills }},
			completed, goodput,
		},
		win: func(g *winGate, rows []*outcome) {
			base, aff := rows[0], rows[1]
			g.require(aff.stats.PrefixHits > base.stats.PrefixHits,
				"affinity fleet prefix hits %d <= least-loaded %d", aff.stats.PrefixHits, base.stats.PrefixHits)
			g.require(aff.ttft(0.50, nil) <= base.ttft(0.50, nil),
				"affinity TTFT p50 %.6fs > least-loaded %.6fs", aff.ttft(0.50, nil), base.ttft(0.50, nil))
			g.require(aff.stats.Completed == base.stats.Completed,
				"affinity completed %d requests, least-loaded %d", aff.stats.Completed, base.stats.Completed)
		},
	},
	{
		// Health-aware routing (breakers, retries and request
		// resurrection) absorbing a scripted crash, against the same
		// fleet without it. The resilient fleet runs twice: its
		// per-request schedules must match byte for byte.
		name:     "chaos",
		about:    "chaos drill, 3 replicas under the plan: " + strings.ReplaceAll(strings.TrimSpace(chaosPlan), "\n", "; "),
		workload: chaosWorkload(),
		label:    "routing",
		variants: []variant{
			{
				label:    "resilient",
				replicas: copies(3, zipserv.LiveConfig{}),
				health:   &zipserv.LiveHealthConfig{RetryBudget: 3},
				faults:   chaosPlan,
				replay:   true,
			},
			{label: "fragile", replicas: copies(3, zipserv.LiveConfig{}), faults: chaosPlan},
		},
		columns: []column{
			completed,
			{"failed", "%d", func(o *outcome) any { return o.stats.Failed }},
			{"lost_requests", "%d", func(o *outcome) any { return o.stats.LostRequests }},
			{"resurrections", "%d", func(o *outcome) any { return o.stats.Resurrections }},
			{"ejections", "%d", func(o *outcome) any { return o.stats.Ejections }},
			{"retry_exhausted", "%d", func(o *outcome) any { return o.stats.RetryExhausted }},
			{"replay_identical", "%t", func(o *outcome) any { return o.replayIdentical() }},
		},
		win: func(g *winGate, rows []*outcome) {
			on, off := rows[0], rows[1]
			n := int64(len(on.reqs))
			g.require(on.stats.Completed == n && on.stats.Failed == 0,
				"resilient fleet completed %d/%d with %d failures; want everything, zero client-visible failures",
				on.stats.Completed, n, on.stats.Failed)
			g.require(on.stats.Resurrections >= 1,
				"resilient fleet resurrected %d requests; the crash must actually bite", on.stats.Resurrections)
			g.require(off.stats.LostRequests >= 1 && off.stats.Failed >= 1,
				"fragile fleet lost %d / failed %d; the plan must cost an unprotected fleet requests",
				off.stats.LostRequests, off.stats.Failed)
			g.require(off.stats.Completed+off.stats.Failed == n,
				"fragile fleet completed %d and failed %d of %d; every request must end one way or the other",
				off.stats.Completed, off.stats.Failed, n)
			g.require(on.replayIdentical(),
				"two resilience-on replays diverged:\n--- first ---\n%s--- second ---\n%s",
				schedule(on.reqs, on.results), schedule(on.reqs, on.rerun))
		},
	},
	{
		// The scheduling win of class- and deadline-aware admission over
		// FIFO head-of-line blocking.
		name:     "policies",
		about:    "mixed trace, 100 req/s Poisson, interactive 128/512 (250 ms TTFT deadline) alternating with batch 1024/4096",
		workload: policiesWorkload(),
		label:    "policy",
		variants: policyVariants(),
		columns: []column{
			{"interactive_ttft_p50_s", "%.6f", func(o *outcome) any { return o.ttft(0.50, isBatch(false)) }},
			{"interactive_ttft_p95_s", "%.6f", func(o *outcome) any { return o.ttft(0.95, isBatch(false)) }},
			{"batch_ttft_p50_s", "%.6f", func(o *outcome) any { return o.ttft(0.50, isBatch(true)) }},
			goodput,
			{"preempted", "%d", func(o *outcome) any { return o.stats.Preempted }},
		},
	},
}

// scenarioNames lists the scenarios in table order.
func scenarioNames() []string {
	names := make([]string, len(scenarios))
	for i, sc := range scenarios {
		names[i] = sc.name
	}
	return names
}

func scenarioByName(name string) (scenario, error) {
	for _, sc := range scenarios {
		if sc.name == name {
			return sc, nil
		}
	}
	return scenario{}, fmt.Errorf("unknown scenario %q (have %s)", name, strings.Join(scenarioNames(), ", "))
}

// runScenario replays sc's workload under each variant on the base
// deployment, prints the table to w (and to csvPath when set), checks
// completion identity, and with requireWin applies the win predicate.
func runScenario(w io.Writer, sc scenario, base zipserv.ServingConfig, requireWin bool, csvPath string) error {
	if sc.engine != nil {
		var err error
		if base, err = sc.engine(base); err != nil {
			return err
		}
	}
	rows := make([]*outcome, len(sc.variants))
	t := table{columns: []string{sc.label}}
	for _, c := range sc.columns {
		t.columns = append(t.columns, c.name)
	}
	for i, v := range sc.variants {
		o, err := runVariant(base, v, sc.workload)
		if err != nil {
			return fmt.Errorf("%s/%s: %w", sc.name, v.label, err)
		}
		rows[i] = o
		cells := []string{v.label}
		for _, c := range sc.columns {
			cells = append(cells, fmt.Sprintf(c.format, c.value(o)))
		}
		t.rows = append(t.rows, cells)
	}

	fmt.Fprintf(w, "%s: %s, %d requests (%s on %dx %s, %s)\n\n",
		sc.name, sc.about, len(sc.workload.reqs), base.Model.Name, base.NumGPUs, base.Device.Name, base.Backend)
	if err := t.print(w); err != nil {
		return err
	}
	if err := t.writeCSV(w, csvPath); err != nil {
		return err
	}
	if err := checkIdentity(rows); err != nil {
		return err
	}
	gate := &winGate{armed: requireWin}
	if sc.win != nil {
		sc.win(gate, rows)
	}
	return gate.err
}

// runVariant replays wl on a fresh fleet built from base and v, twice
// when v asks for a replay check.
func runVariant(base zipserv.ServingConfig, v variant, wl workload) (*outcome, error) {
	o := &outcome{variant: v, reqs: wl.reqs}
	var err error
	if o.results, o.stats, err = runFleet(base, v, wl); err != nil {
		return nil, err
	}
	if v.replay {
		if o.rerun, _, err = runFleet(base, v, wl); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// runFleet builds v's fleet, drives wl through it, and stops it on every
// path; the stats snapshot is taken after the stop.
func runFleet(base zipserv.ServingConfig, v variant, wl workload) ([]zipserv.LiveResult, zipserv.LiveStats, error) {
	fleet, err := buildFleet(base, v, len(wl.reqs))
	if err != nil {
		return nil, zipserv.LiveStats{}, err
	}
	results, err := drive(fleet, wl, v.faults != "")
	// A crashed replica's Stop is immediate; the survivors drain.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := errors.Join(err, fleet.Stop(ctx)); err != nil {
		return nil, zipserv.LiveStats{}, err
	}
	return results, fleet.Stats(), nil
}

// buildFleet builds one server per replica config, each on a fresh
// engine with a queue of the given depth, behind a router when there
// is more than one.
func buildFleet(base zipserv.ServingConfig, v variant, queue int) (zipserv.LiveBackend, error) {
	plan, err := zipserv.ParseLiveFaultPlan(v.faults)
	if err != nil {
		return nil, err
	}
	servers := make([]*zipserv.LiveServer, len(v.replicas))
	backends := make([]zipserv.LiveBackend, len(v.replicas))
	for i, cfg := range v.replicas {
		eng, err := zipserv.NewEngine(base)
		if err != nil {
			return nil, err
		}
		cfg.Engine = eng
		cfg.QueueDepth = queue
		cfg.Faults = plan.Replica(i)
		if servers[i], err = zipserv.NewLiveServer(cfg); err != nil {
			return nil, err
		}
		backends[i] = servers[i]
	}
	if len(servers) == 1 {
		return servers[0], nil
	}
	if v.pooled {
		return zipserv.NewPooledLiveRouter(servers...)
	}
	router, err := zipserv.NewLiveRouter(backends...)
	if err == nil && v.affinity != nil {
		err = router.EnableAffinity(*v.affinity)
	}
	if err == nil && v.health != nil {
		err = router.EnableHealth(*v.health)
	}
	return router, err
}

// drive submits wl to fleet, starts it, and collects every result in
// submission-index order. A failed request aborts the run unless
// failuresExpected (the fleet runs a fault plan).
func drive(fleet zipserv.LiveBackend, wl workload, failuresExpected bool) ([]zipserv.LiveResult, error) {
	waves := wl.waves
	if waves == nil {
		all := make([]int, len(wl.reqs))
		for i := range all {
			all[i] = i
		}
		waves = [][]int{all}
	} else {
		fleet.Start()
	}
	results := make([]zipserv.LiveResult, len(wl.reqs))
	for _, wave := range waves {
		tickets := make([]*zipserv.LiveTicket, len(wave))
		for i, idx := range wave {
			var err error
			if tickets[i], err = fleet.Submit(wl.reqs[idx]); err != nil {
				return nil, err
			}
		}
		if wl.waves == nil {
			fleet.Start()
		}
		for i, idx := range wave {
			results[idx] = <-tickets[i].Result()
			if results[idx].Err != nil && !failuresExpected {
				return nil, results[idx].Err
			}
		}
	}
	return results, nil
}

// checkIdentity compares every variant's completions with the first's
// at each submission index: the (prompt, output) lengths, and the
// sequence IDs when both ran on a bare server (a pooled fleet mints IDs
// from one shared counter while a plain router's replicas each count
// from 1, so fleet IDs are not comparable across shapes). The simulated
// outputs are fully determined by these facts, and the KV round trips
// of compression and handoff are bit-verified inside the allocator and
// ImportSequence. Variants under a fault plan are exempt: there a
// failed request is an outcome and carries no lengths.
func checkIdentity(rows []*outcome) error {
	first := rows[0]
	for _, o := range rows[1:] {
		if first.faults != "" || o.faults != "" {
			continue
		}
		ids := len(first.replicas) == 1 && len(o.replicas) == 1
		for i, a := range first.results {
			b := o.results[i]
			if a.PromptLen != b.PromptLen || a.OutputLen != b.OutputLen || (ids && a.ID != b.ID) {
				return fmt.Errorf("completion %d differs: %s=(id %d, %d/%d) %s=(id %d, %d/%d)",
					i, first.label, a.ID, a.PromptLen, a.OutputLen, o.label, b.ID, b.PromptLen, b.OutputLen)
			}
		}
	}
	return nil
}

// ttft is the p-quantile TTFT over the requests keep admits (all when
// keep is nil).
func (o *outcome) ttft(p float64, keep func(zipserv.LiveRequest) bool) float64 {
	var xs []float64
	for i, res := range o.results {
		if keep == nil || keep(o.reqs[i]) {
			xs = append(xs, res.TTFT)
		}
	}
	return percentile(xs, p)
}

// decodeTPOT is the p-quantile TPOT over the decoders: the mixes' long
// prompts generate at most 8 tokens, their decoders more.
func (o *outcome) decodeTPOT(p float64) float64 {
	var xs []float64
	for i, res := range o.results {
		if o.reqs[i].OutputLen > 8 {
			xs = append(xs, res.TPOT)
		}
	}
	return percentile(xs, p)
}

// replayIdentical reports whether a replayed variant's two runs produced
// the same schedule; true for a variant that was not replayed.
func (o *outcome) replayIdentical() bool {
	return o.rerun == nil || schedule(o.reqs, o.results) == schedule(o.reqs, o.rerun)
}

// schedule renders one line per request (index, lengths, verdict,
// resurrections): the outcome a replay must reproduce.
func schedule(reqs []zipserv.LiveRequest, results []zipserv.LiveResult) string {
	var b strings.Builder
	for i, res := range results {
		verdict := "ok"
		if res.Err != nil {
			verdict = "failed"
		}
		fmt.Fprintf(&b, "%d %d %d %s %d\n", i, reqs[i].PromptLen, reqs[i].OutputLen, verdict, res.Resurrected)
	}
	return b.String()
}

// copies returns n replicas configured alike.
func copies(n int, cfg zipserv.LiveConfig) []zipserv.LiveConfig {
	cfgs := make([]zipserv.LiveConfig, n)
	for i := range cfgs {
		cfgs[i] = cfg
	}
	return cfgs
}

func isBatch(batch bool) func(zipserv.LiveRequest) bool {
	return func(r zipserv.LiveRequest) bool { return (r.Class == zipserv.LiveClassBatch) == batch }
}

// seq returns n distinct token ids first, first+131, ...: deterministic
// prompt content that only shares a prefix where a workload says so.
func seq(n, first int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = first + i*131
	}
	return out
}

// prefixWorkload: 40 requests, one every 10 ms, each a common
// 1024-token prefix plus a unique 128-token suffix, 64 output tokens.
func prefixWorkload() workload {
	prefix := seq(1024, 100003)
	reqs := make([]zipserv.LiveRequest, 40)
	for i := range reqs {
		suffix := seq(128, (i+2)*1000003)
		reqs[i] = zipserv.LiveRequest{Prompt: slices.Concat(prefix, suffix), OutputLen: 64, Arrival: float64(i) / 100}
	}
	return workload{reqs: reqs}
}

// chunkingWorkload: 40 Poisson arrivals of 128/128 decoders, every
// fifth a 2048-token prompt with 8 output tokens instead.
func chunkingWorkload() workload {
	trace := zipserv.SyntheticTrace(40, 100, 128, 128, 7)
	reqs := make([]zipserv.LiveRequest, len(trace))
	for i, r := range trace {
		reqs[i] = zipserv.LiveRequest{PromptLen: 128, OutputLen: 128, Arrival: r.ArrivalSeconds}
		if i%5 == 4 {
			reqs[i] = zipserv.LiveRequest{PromptLen: 2048, OutputLen: 8, Arrival: r.ArrivalSeconds}
		}
	}
	return workload{reqs: reqs}
}

// policiesWorkload: 64 Poisson arrivals alternating interactive
// requests (128/512, a 250 ms TTFT deadline) and batch requests (8x
// longer, no deadline).
func policiesWorkload() workload {
	trace := zipserv.SyntheticTrace(64, 100, 128, 512, 7)
	reqs := make([]zipserv.LiveRequest, len(trace))
	for i, r := range trace {
		reqs[i] = zipserv.LiveRequest{
			PromptLen: 128, OutputLen: 512, Arrival: r.ArrivalSeconds,
			Class: zipserv.LiveClassInteractive, TTFTDeadline: 0.25,
		}
		if i%2 == 1 {
			reqs[i] = zipserv.LiveRequest{PromptLen: 1024, OutputLen: 4096, Arrival: r.ArrivalSeconds, Class: zipserv.LiveClassBatch}
		}
	}
	return workload{reqs: reqs}
}

// policyVariants runs one bare server per built-in admission policy.
func policyVariants() []variant {
	var vs []variant
	for _, name := range zipserv.LivePolicyNames() {
		policy, err := zipserv.LivePolicyByName(name)
		if err != nil {
			panic(err) // the name came from LivePolicyNames
		}
		vs = append(vs, variant{label: name, replicas: []zipserv.LiveConfig{{Policy: policy}}})
	}
	return vs
}

// burstMix is the adaptive and disagg workload: n requests rounded up
// to whole bursts of 8, bursts 0.7 s apart. Each burst holds 8-long
// chat decoders (a shared 512-token prefix plus a unique 32-token
// suffix, 32 output tokens) and long unique 2048-token prompts with
// longOut output tokens, the k-th long prompt arriving (k+1)*stagger
// seconds into the burst, so it lands while the decoders are
// mid-decode.
func burstMix(n, long, longOut int, stagger float64) workload {
	prefix := seq(512, 100003)
	var reqs []zipserv.LiveRequest
	id := 0
	for b := 0; b < (n+7)/8; b++ {
		at := float64(b) * 0.7
		for j := 0; j < 8; j++ {
			id++
			if k := j - (8 - long); k >= 0 {
				p := seq(2048, (5000+id)*100003)
				reqs = append(reqs, zipserv.LiveRequest{Prompt: p, OutputLen: longOut, Arrival: at + stagger*float64(k+1)})
				continue
			}
			chat := slices.Concat(prefix, seq(32, (100+id)*100003))
			reqs = append(reqs, zipserv.LiveRequest{Prompt: chat, OutputLen: 32, Arrival: at})
		}
	}
	return workload{reqs: reqs}
}

// compressWorkload alternates 64 shared-prefix requests (4 blocks of
// common prefix plus a unique one-block suffix, 2 blocks of output)
// with "flusher" requests whose prompt+output footprint is the whole
// planBlocks plan. Flushers carry no prompt tokens, so they allocate
// fresh blocks without touching the prefix trie, and each forces every
// parked refcount-zero block out of the physical pool.
func compressWorkload() workload {
	const out = 2 * blockTokens
	prefix := seq(4*blockTokens, 100003)
	var reqs []zipserv.LiveRequest
	for i := 0; i < 64; i++ {
		shared := slices.Concat(prefix, seq(blockTokens, (i+2)*1000003))
		reqs = append(reqs, zipserv.LiveRequest{Prompt: shared, OutputLen: out, Arrival: float64(len(reqs)) * 0.01})
		if i < 63 {
			flush := planBlocks*blockTokens - out
			reqs = append(reqs, zipserv.LiveRequest{PromptLen: flush, OutputLen: out, Arrival: float64(len(reqs)) * 0.01})
		}
	}
	return workload{reqs: reqs}
}

// tinyKVPlan shrinks the deployment's KV plan to exactly planBlocks
// blocks by growing the engine's reserved-memory headroom: probe the
// default plan, then hand the surplus KV bytes (minus half a block, so
// flooring cannot drop below the target) back as reservation.
func tinyKVPlan(cfg zipserv.ServingConfig) (zipserv.ServingConfig, error) {
	probe, err := zipserv.NewEngine(cfg)
	if err != nil {
		return cfg, err
	}
	bytesPerBlock := blockTokens * cfg.Model.KVBytesPerToken() / int64(cfg.NumGPUs)
	surplus := probe.Plan().KVBytes - planBlocks*bytesPerBlock - bytesPerBlock/2
	if surplus <= 0 {
		return cfg, fmt.Errorf("device plan already below %d KV blocks", planBlocks)
	}
	cfg.ReservedGiB = 3 + float64(surplus)/float64(int64(1)<<30)
	eng, err := zipserv.NewEngine(cfg)
	if err != nil {
		return cfg, err
	}
	if got := eng.Plan().Blocks; got != planBlocks {
		return cfg, fmt.Errorf("constrained plan has %d KV blocks, want %d", got, planBlocks)
	}
	return cfg, nil
}

// affinityWorkload models 8 tenants hammering their own system
// prompts: each tenant owns a 512-token prefix, and each of 4 waves
// submits two requests per tenant (unique 64-token suffixes, 32 output
// tokens) in an order shuffled by an LCG seeded on the wave index. The
// shuffle matters: in a fixed tenant order, least-loaded round-robin
// would pin tenants to replicas by accident and look affinity-aware;
// shuffled, they scatter, as real interleaved arrivals do.
func affinityWorkload() workload {
	const perWave = 16 // 8 tenants x 2 requests
	wl := workload{reqs: make([]zipserv.LiveRequest, 4*perWave), waves: make([][]int, 4)}
	for w := range wl.waves {
		order := make([]int, perWave)
		for i := range order {
			idx := w*perWave + i
			tenant := i / 2
			p := slices.Concat(seq(512, (1000+tenant)*100003), seq(64, (7000+idx)*100003))
			wl.reqs[idx] = zipserv.LiveRequest{Prompt: p, OutputLen: 32, Arrival: zipserv.LiveArrivalNow}
			order[i] = idx
		}
		x := uint64(w)*2654435761 + 12345
		for i := perWave - 1; i > 0; i-- {
			x = x*6364136223846793005 + 1442695040888963407
			j := int((x >> 33) % uint64(i+1))
			order[i], order[j] = order[j], order[i]
		}
		wl.waves[w] = order
	}
	return wl
}

// chaosWorkload: 64 requests of mixed lengths, all known up front.
func chaosWorkload() workload {
	reqs := make([]zipserv.LiveRequest, 64)
	for i := range reqs {
		reqs[i] = zipserv.LiveRequest{PromptLen: 256 + (i%4)*64, OutputLen: 32 + (i%3)*16}
	}
	return workload{reqs: reqs}
}
