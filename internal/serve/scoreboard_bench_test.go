package serve

import "testing"

// deepCore builds an SLO scoreboard core holding depth eligible
// requests with deadlines spread across rank buckets — the policy with
// the most scoreboard machinery in play (two-key eligible ordering plus
// the running victim scoreboard).
func deepCore(depth int) (*schedCore, float64) {
	sc, _ := newSchedCore(SLOPolicy{})
	const now = 1 << 20 // past every arrival below
	for i := 0; i < depth; i++ {
		arrival := float64(i%31) * 0.125
		ttft := float64(i%97)*0.25 + 0.5
		c := fuzzCall(i+1, arrival, ClassInteractive, ttft)
		sc.add(c)
	}
	sc.promote(now)
	return sc, now
}

// BenchmarkAdmissionDeepQueue measures one admission-slot decision —
// promote, peek, remove, requeue — at three queue depths. The contract
// the CI gate enforces: 0 allocs/op, and ns/op independent of depth
// (the 10k and 64k runs within noise of the 1k run), because every
// operation is a bitmap pick plus an intrusive-list unlink, never a
// scan of the queue.
func BenchmarkAdmissionDeepQueue(b *testing.B) {
	for _, depth := range []struct {
		name string
		n    int
	}{{"1k", 1000}, {"10k", 10000}, {"64k", 64000}} {
		b.Run(depth.name, func(b *testing.B) {
			sc, now := deepCore(depth.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sc.promote(now)
				c, ok := sc.peek()
				if !ok {
					b.Fatal("eligible scoreboard drained")
				}
				sc.removeEligible(c.req.ID)
				// Requeue the same call: a recycled id keeps the index
				// map at steady state, so the cycle exercises the pool's
				// zero-allocation path the way a live admit/preempt churn
				// does.
				sc.add(c)
			}
		})
	}
}

// BenchmarkVictimSelection measures one SLO preemption pick — the
// reverse-CLZ max over a 10k-sequence running scoreboard — plus the
// mirror remove/re-add a preemption performs. Same CI contract:
// 0 allocs/op, depth-independent.
func BenchmarkVictimSelection(b *testing.B) {
	const depth = 10000
	sc, _ := newSchedCore(SLOPolicy{})
	byID := make(map[int]*call, depth)
	for i := 0; i < depth; i++ {
		c := fuzzCall(i+1, 0, ClassInteractive, float64(i%89)*0.5+1)
		c.admittedAt = float64(i % 7)
		byID[c.req.ID] = c
		sc.runningAdd(c)
	}
	const blockedDeadline = 0.25 // earlier than every running deadline
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, ok := sc.victim(blockedDeadline)
		if !ok {
			b.Fatal("victim scoreboard drained")
		}
		sc.runningRemove(id)
		sc.runningAdd(byID[id])
	}
}
