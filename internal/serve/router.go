package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"zipserv/internal/kvcache"
)

// Backend is the serving surface the HTTP layer binds to: one live
// scheduler (*Server) or a sharded fleet of them (*Router). Submit,
// Stats and Stop follow the Server semantics; Start is idempotent.
type Backend interface {
	// Start launches the backend's scheduler goroutine(s).
	Start()
	// Submit offers a request without blocking (ErrQueueFull,
	// ErrStopped, ErrNeverFits on failure).
	Submit(Request) (*Ticket, error)
	// Stats returns an aggregate snapshot, safe for concurrent use.
	Stats() Stats
	// Stop drains gracefully: everything admitted is served, new
	// submissions fail with ErrStopped.
	Stop(context.Context) error
}

// Router shards traffic across N replica backends with capacity-aware
// dispatch: each Submit ranks the replicas least-loaded-first by their
// Stats snapshot — fewest queued+active requests, then most free KV
// blocks — and fails over down the ranking when a replica's queue is
// full or it has stopped, so draining one replica reroutes traffic
// without failed requests. A Router is itself a Backend, so deployments
// nest (e.g. a router over per-node routers over per-GPU servers).
type Router struct {
	replicas []Backend

	// Pooled dispatch tiers (NewPooledRouter). When submitTier is set,
	// requests are offered to it first (prefill + mixed replicas) and
	// spill to fallbackTier (decode replicas, serving co-located) only
	// when every preferred replica rejects — the prefill-death failover.
	// A plain NewRouter leaves both nil and dispatches over replicas.
	submitTier   []Backend
	fallbackTier []Backend

	// Router-level admission outcomes. Failover probes bump the
	// replicas' own rejected counters even when the request lands
	// elsewhere, so the fleet aggregate reports these instead: what
	// clients actually observed.
	submitted atomic.Int64
	rejected  atomic.Int64

	// Prefix-affinity dispatch (affinity.go; nil = least-loaded only).
	// Hits count requests landing on the replica with the best estimated
	// prefix overlap; spills count requests that wanted a replica but
	// routed elsewhere (load band, free-block floor, or failover).
	affinity       *AffinityConfig
	affinityHits   atomic.Int64
	affinitySpills atomic.Int64
	// staleDigest counts dispatches where at least one candidate's
	// prefix digest was older than the affinity MaxSummaryAge bound and
	// was ignored — affinity degraded to least-loaded for it.
	staleDigest atomic.Int64

	// Health-aware routing (health.go; nil = every replica always
	// eligible). healthMap is assembled once by EnableHealth and
	// read-only afterwards; per-replica state lives behind each entry's
	// own mutex.
	health         *HealthConfig
	healthMap      map[Backend]*replicaHealth
	ejections      atomic.Int64
	healthProbes   atomic.Int64
	reinstatements atomic.Int64
	resurrections  atomic.Int64
	retryExhausted atomic.Int64
}

var _ Backend = (*Router)(nil)

// NewRouter builds a router over the given replicas (at least one).
// The replicas are typically *Server instances over per-GPU or
// per-node engines; the router does not start or own their engines.
func NewRouter(replicas ...Backend) (*Router, error) {
	if len(replicas) == 0 {
		return nil, fmt.Errorf("serve: router needs at least one replica")
	}
	for i, b := range replicas {
		if b == nil {
			return nil, fmt.Errorf("serve: router replica %d is nil", i)
		}
	}
	return &Router{replicas: append([]Backend(nil), replicas...)}, nil
}

// Replicas returns the number of replicas behind the router.
func (r *Router) Replicas() int { return len(r.replicas) }

// Start launches every replica.
func (r *Router) Start() {
	for _, b := range r.replicas {
		b.Start()
	}
}

// Submit dispatches the request to the least-loaded replica — or, with
// EnableAffinity, to the in-band replica with the best estimated
// prefix overlap (affinity.go) — failing over in ranking order. The
// returned error is the most retryable one observed: a full queue (the
// caller should back off and retry) wins over a stopped replica;
// ErrNeverFits is returned only when no running replica could ever
// admit the request.
func (r *Router) Submit(req Request) (*Ticket, error) {
	var queueFull, neverFits, lastErr error
	for _, tier := range r.tiers() {
		ranked, preferred, probes := r.healthRank(tier, req)
		for i, b := range ranked {
			tk, err := b.Submit(req)
			if err == nil {
				// Any due probe this dispatch never reached stays due:
				// release its trial flag before returning.
				for j := i + 1; j < len(probes); j++ {
					r.releaseProbe(probes[j])
				}
				r.submitted.Add(1)
				r.noteDispatch(b, preferred)
				r.noteSubmitOK(b)
				return tk, nil
			}
			r.noteSubmitErr(b, err)
			switch {
			case errors.Is(err, ErrQueueFull):
				queueFull = err
			case errors.Is(err, ErrNeverFits):
				neverFits = err
			default:
				lastErr = err
			}
		}
	}
	// Every failure return below is a client-visible submit failure the
	// fleet's per-replica counters cannot see (failover probes bump the
	// replicas' own rejected counts even when a request lands), so each
	// one counts here — not just the queue-full fast path.
	r.rejected.Add(1)
	if queueFull != nil {
		return nil, queueFull
	}
	if neverFits != nil {
		return nil, neverFits
	}
	if lastErr == nil {
		lastErr = ErrStopped // empty dispatch tiers: nothing was tried
	}
	return nil, lastErr
}

// tiers returns the dispatch tiers in preference order: the flat
// replica set for a plain router, or the pooled submit tier followed by
// the decode-replica fallback.
func (r *Router) tiers() [][]Backend {
	if len(r.submitTier) == 0 {
		return [][]Backend{r.replicas}
	}
	return [][]Backend{r.submitTier, r.fallbackTier}
}

// rankByLoad orders backends least-loaded first by their Stats
// snapshots: fewest queued+active requests, then most free KV blocks.
func rankByLoad(backends []Backend) []Backend {
	type candidate struct {
		b    Backend
		load int
		free int
	}
	cands := make([]candidate, 0, len(backends))
	for _, b := range backends {
		st := b.Stats()
		cands = append(cands, candidate{b: b, load: st.Queued + st.Active, free: st.FreeKVBlocks})
	}
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].load != cands[j].load {
			return cands[i].load < cands[j].load
		}
		return cands[i].free > cands[j].free
	})
	out := make([]Backend, len(cands))
	for i, c := range cands {
		out[i] = c.b
	}
	return out
}

// Stats returns the fleet-wide aggregate: counters, queue depths and
// KV headroom summed across replicas, SimSeconds the slowest replica's
// clock, rates recomputed against it, and latency means weighted by
// each replica's completions. PeakConcurrency sums the per-replica
// peaks (an upper bound: replica clocks are independent). Submitted
// and Rejected are counted at the router, not summed: a failover probe
// into a full replica is not a client-visible rejection.
func (r *Router) Stats() Stats {
	agg, _ := r.Snapshot()
	return agg
}

// Snapshot returns the fleet aggregate and the per-replica breakdown
// computed from one pass over the replicas, so the breakdown always
// sums to the aggregate it is served alongside.
func (r *Router) Snapshot() (Stats, []Stats) {
	per := r.ReplicaStats()
	agg := aggregateStats(per)
	agg.Submitted = r.submitted.Load()
	agg.Rejected = r.rejected.Load()
	// Affinity outcomes are decided here, at the dispatching router —
	// replicas always report 0 — but nested routers decide their own, so
	// this level's counters add to the aggregate instead of replacing it.
	agg.PrefixAffinityHits += r.affinityHits.Load()
	agg.AffinitySpills += r.affinitySpills.Load()
	agg.StaleDigestRoutes += r.staleDigest.Load()
	if r.health != nil {
		// Health outcomes follow the same rule: this router's breaker
		// counters and census add to whatever nested health routers
		// already reported. Resurrections abandoned at this router
		// (budget exhausted, nowhere to go) were delivered as failures
		// here, so they fold into the fleet's Failed — no replica's own
		// snapshot ever counted them.
		agg.HealthEnabled = true
		agg.Ejections += r.ejections.Load()
		agg.HealthProbes += r.healthProbes.Load()
		agg.Reinstatements += r.reinstatements.Load()
		agg.Resurrections += r.resurrections.Load()
		exhausted := r.retryExhausted.Load()
		agg.RetryExhausted += exhausted
		agg.Failed += exhausted
		for i := range r.replicas {
			switch HealthState(per[i].HealthState) {
			case HealthDegraded:
				agg.ReplicasDegraded++
			case HealthEjected, HealthProbing:
				agg.ReplicasEjected++
			default:
				agg.ReplicasHealthy++
			}
		}
	}
	return agg, per
}

// ReplicaStats snapshots every replica, in router order — the
// per-replica breakdown behind a routed /v1/stats. With health-aware
// routing on, each snapshot is annotated with the replica's current
// breaker state.
func (r *Router) ReplicaStats() []Stats {
	out := make([]Stats, len(r.replicas))
	for i, b := range r.replicas {
		out[i] = b.Stats()
		if r.health != nil {
			out[i].HealthState = string(r.healthStateOf(b, &out[i]))
		}
	}
	return out
}

// Stop drains every replica concurrently and joins their errors.
func (r *Router) Stop(ctx context.Context) error {
	errs := make([]error, len(r.replicas))
	var wg sync.WaitGroup
	for i, b := range r.replicas {
		wg.Add(1)
		go func(i int, b Backend) {
			defer wg.Done()
			errs[i] = b.Stop(ctx)
		}(i, b)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// aggregateStats folds per-replica snapshots into one fleet view. Safe
// on an empty slice (all-zero aggregate, no NaNs): a router may be
// asked for stats while its replica set is still being assembled.
func aggregateStats(replicas []Stats) Stats {
	var agg Stats
	var ttft, tpot, wait float64
	var hitEWMA float64
	adaptiveCaches := 0
	var compOrigBytes float64
	var summaries []*kvcache.PrefixSummary
	for i, st := range replicas {
		agg.Submitted += st.Submitted
		agg.Rejected += st.Rejected
		agg.Completed += st.Completed
		agg.Failed += st.Failed
		agg.Preempted += st.Preempted
		agg.Queued += st.Queued
		agg.Active += st.Active
		agg.FreeKVBlocks += st.FreeKVBlocks
		agg.TotalKVBlocks += st.TotalKVBlocks
		agg.OutputTokens += st.OutputTokens
		agg.DecodeSteps += st.DecodeSteps
		agg.PeakConcurrency += st.PeakConcurrency
		agg.RecentDrainRPS += st.RecentDrainRPS
		agg.PrefillIterations += st.PrefillIterations
		agg.PrefillTokens += st.PrefillTokens
		agg.PrefixCacheEnabled = agg.PrefixCacheEnabled || st.PrefixCacheEnabled
		agg.PrefixHits += st.PrefixHits
		agg.PrefixTokensSaved += st.PrefixTokensSaved
		agg.CachedKVBlocks += st.CachedKVBlocks
		agg.SharedKVBlocks += st.SharedKVBlocks
		// Affinity telemetry: counters sum (nested routers report their
		// own dispatch outcomes; leaf replicas report 0), the trie
		// digests merge below, and the fleet summary age is the oldest
		// replica's — the staleness bound on any overlap estimate made
		// from this aggregate.
		agg.PrefixAffinityHits += st.PrefixAffinityHits
		agg.AffinitySpills += st.AffinitySpills
		if st.PrefixSummary != nil {
			summaries = append(summaries, st.PrefixSummary)
		}
		if st.SummaryAgeSeconds > agg.SummaryAgeSeconds {
			agg.SummaryAgeSeconds = st.SummaryAgeSeconds
		}
		// Compressed-cache counters sum like the capacity they describe;
		// the fleet ratio is reconstructed below from per-replica
		// original footprints (ratio × compressed bytes), so replicas
		// holding more content weigh more.
		agg.CompressedCacheEnabled = agg.CompressedCacheEnabled || st.CompressedCacheEnabled
		agg.CompressedKVBlocks += st.CompressedKVBlocks
		agg.CompressedKVBytes += st.CompressedKVBytes
		agg.DecompressClaims += st.DecompressClaims
		compOrigBytes += st.KVCompressionRatio * float64(st.CompressedKVBytes)
		agg.Handoffs += st.Handoffs
		agg.HandoffBytes += st.HandoffBytes
		agg.HandoffFailures += st.HandoffFailures
		agg.HandoffImports += st.HandoffImports
		// Robustness and health telemetry: counters sum (a dispatching
		// router adds its own breaker/retry outcomes in Snapshot, like
		// affinity; nested routers' aggregates fold through here), the
		// enablement flag ORs, and the census sums nested fleets'
		// counts. HealthState is a per-replica annotation and never
		// aggregates.
		agg.LostRequests += st.LostRequests
		agg.HandoffDrops += st.HandoffDrops
		agg.CodecFallbacks += st.CodecFallbacks
		agg.HealthEnabled = agg.HealthEnabled || st.HealthEnabled
		agg.ReplicasHealthy += st.ReplicasHealthy
		agg.ReplicasDegraded += st.ReplicasDegraded
		agg.ReplicasEjected += st.ReplicasEjected
		agg.Ejections += st.Ejections
		agg.HealthProbes += st.HealthProbes
		agg.Reinstatements += st.Reinstatements
		agg.Resurrections += st.Resurrections
		agg.RetryExhausted += st.RetryExhausted
		agg.StaleDigestRoutes += st.StaleDigestRoutes
		// Worst-replica cadence stall and the largest configured budget
		// (fleets are normally homogeneous; max is the honest summary
		// when they are not).
		if st.MaxDecodeGap > agg.MaxDecodeGap {
			agg.MaxDecodeGap = st.MaxDecodeGap
		}
		if st.PrefillChunkTokens > agg.PrefillChunkTokens {
			agg.PrefillChunkTokens = st.PrefillChunkTokens
		}
		// Adaptive-controller telemetry: the fleet budget spread is the
		// min/max over the replicas' own spreads (nested routers fold
		// correctly), the headline budget and step-time figures are the
		// worst replica's, pool targets sum like the capacity they
		// bound, and the hit-rate EWMA averages the replicas that run
		// the sizing controller.
		agg.AdaptiveChunking = agg.AdaptiveChunking || st.AdaptiveChunking
		agg.AdaptivePrefixCache = agg.AdaptivePrefixCache || st.AdaptivePrefixCache
		// The fleet's tightest budget is the min over replicas that have
		// one: a monolithic replica's 0 means "no per-iteration bound",
		// not "bound of zero", so folding it in would report the loosest
		// replica as the tightest. 0 survives only on an all-monolithic
		// fleet.
		if st.ChunkBudgetMin > 0 && (agg.ChunkBudgetMin == 0 || st.ChunkBudgetMin < agg.ChunkBudgetMin) {
			agg.ChunkBudgetMin = st.ChunkBudgetMin
		}
		if st.ChunkBudgetMax > agg.ChunkBudgetMax {
			agg.ChunkBudgetMax = st.ChunkBudgetMax
		}
		if st.ChunkBudget > agg.ChunkBudget {
			agg.ChunkBudget = st.ChunkBudget
		}
		if st.TargetStepTime > agg.TargetStepTime {
			agg.TargetStepTime = st.TargetStepTime
		}
		if st.StepTimeEWMA > agg.StepTimeEWMA {
			agg.StepTimeEWMA = st.StepTimeEWMA
		}
		if st.CachePressureEWMA > agg.CachePressureEWMA {
			agg.CachePressureEWMA = st.CachePressureEWMA
		}
		agg.CachePoolTarget += st.CachePoolTarget
		if st.AdaptivePrefixCache {
			hitEWMA += st.CacheHitRateEWMA
			adaptiveCaches++
		}
		if st.SimSeconds > agg.SimSeconds {
			agg.SimSeconds = st.SimSeconds
		}
		if st.WallSeconds > agg.WallSeconds {
			agg.WallSeconds = st.WallSeconds
		}
		if i == 0 {
			agg.Policy = st.Policy
			agg.Pool = st.Pool
		} else {
			if agg.Policy != st.Policy {
				agg.Policy = "mixed"
			}
			if agg.Pool != st.Pool {
				agg.Pool = string(PoolMixed)
			}
		}
		ttft += st.MeanTTFT * float64(st.Completed)
		tpot += st.MeanTPOT * float64(st.Completed)
		wait += st.MeanQueueWait * float64(st.Completed)
	}
	if agg.Completed > 0 {
		agg.MeanTTFT = ttft / float64(agg.Completed)
		agg.MeanTPOT = tpot / float64(agg.Completed)
		agg.MeanQueueWait = wait / float64(agg.Completed)
	}
	if adaptiveCaches > 0 {
		agg.CacheHitRateEWMA = hitEWMA / float64(adaptiveCaches)
	}
	if agg.CompressedKVBytes > 0 {
		agg.KVCompressionRatio = compOrigBytes / float64(agg.CompressedKVBytes)
	} else if agg.CompressedCacheEnabled {
		agg.KVCompressionRatio = 1.0 // enabled fleet, nothing frozen yet
	}
	agg.PrefixSummary = kvcache.MergePrefixSummaries(summaries)
	if agg.SimSeconds > 0 {
		agg.Goodput = float64(agg.Completed) / agg.SimSeconds
		agg.Throughput = float64(agg.OutputTokens) / agg.SimSeconds
	}
	return agg
}
