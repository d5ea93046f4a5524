package main

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{11, 100, 425, 1000, 42500} {
		d := make([]float64, n)
		for i := range d {
			d[i] = float64(n - i) // n..1, unsorted
		}
		v, p := tail(d)
		beyond := 0
		for _, x := range d {
			if x > v {
				beyond++
			}
		}
		if beyond != minBeyond {
			t.Errorf("n=%d: tail %v at p%v has %d samples beyond, want %d", n, v, p, beyond, minBeyond)
		}
		if want := 100 * float64(n-minBeyond) / float64(n); p != want {
			t.Errorf("n=%d: tail at p%v, want p%v", n, p, want)
		}
	}
	if v, p := tail([]float64{3, 1, 2}); v != 3 || p != 100 {
		t.Errorf("tail of 3 samples = %v at p%v, want the max at p100", v, p)
	}
	// A stall that slows 1% of 1000 requests shows in the tail.
	d := make([]float64, 1000)
	for i := range d {
		d[i] = 1
		if i%100 == 0 {
			d[i] = 50
		}
	}
	if v, _ := tail(d); v != 1 {
		t.Errorf("tail with 10 stalled requests = %v, want 1: exactly ten lie beyond it", v)
	}
	d[1] = 50
	if v, _ := tail(d); v != 50 {
		t.Errorf("tail with 11 stalled requests = %v, want a stalled request's 50", v)
	}
}

func TestPairSubmitsNeedsMatchingTicketLengthsAndTime(t *testing.T) {
	// Two replicas hand out the same ticket ID 3 to requests in flight at
	// the same time; their lengths tell them apart. A third request with
	// ID 3 and the same lengths as the first comes later, so only the
	// time window places its span.
	spans := []span{
		{Name: "router.submit", Start: 10, End: 12, Parent: -1, Req: 3},
		{Name: "router.submit", Start: 11, End: 13, Parent: -1, Req: 3},
		{Name: "router.submit", Start: 50, End: 52, Parent: -1, Req: 3},
		{Name: "router.submit", Start: 60, End: 61, Parent: -1, Req: 4},
		{Name: "router.submit", Start: 62, End: 63, Parent: -1, Req: 4},
	}
	submits := []submit{
		{span: 0, id: 3, promptLen: 100, outputLen: 10},
		{span: 1, id: 3, promptLen: 200, outputLen: 20},
		{span: 2, id: 3, promptLen: 100, outputLen: 10},
		{span: 3, id: 4, promptLen: 7, outputLen: 7},
		{span: 4, id: 4, promptLen: 7, outputLen: 7},
	}
	req := func(id, p, o int, send, done int64) sample {
		return sample{promptLen: p, outputLen: o, o: outcome{ticket: id, send: send, done: done}}
	}
	samples := []sample{
		req(3, 200, 20, 11, 40),
		req(3, 100, 10, 9, 30),
		req(3, 100, 10, 49, 80),
		req(4, 7, 7, 59, 70), // two spans fit: ambiguous
		req(3, 100, 10, 0, 100),
	}
	samples[4].failed = true
	got := pairSubmits(spans, submits, samples)
	want := []int{1, 0, 2, -1, -1}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("sample %d paired with span %d, want %d", i, got[i], want[i])
		}
	}

	// Two requests that could both claim the one span both stay unpaired,
	// and no queue span may end before it starts.
	rec := &recorder{spans: spans[:1], submits: submits[:1]}
	samples = []sample{req(3, 100, 10, 5, 40), req(3, 100, 10, 8, 40)}
	samples[0].o.admitted = 20
	if n := traceRequests(rec, samples); n != 2 {
		t.Errorf("%d requests unpaired, want 2", n)
	}
	rec = &recorder{spans: spans[:1], submits: submits[:1]}
	samples = samples[:1]
	samples[0].o.admitted = 11 // before the submit span ends
	samples[0].o.firstToken, samples[0].o.due = 30, 5
	if n := traceRequests(rec, samples); n != 0 {
		t.Errorf("%d requests unpaired, want 0", n)
	}
	for _, s := range rec.spans {
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts: %+v", s.Name, s)
		}
		if s.Name == "replica.queue" {
			t.Errorf("queue span emitted for an admitted line before Submit returned: %+v", s)
		}
	}
	if rec.spans[0].Parent < 0 || rec.spans[rec.spans[0].Parent].Name != "httpapi.request" {
		t.Errorf("router.submit not hung under httpapi.request: %+v", rec.spans[0])
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{Name: "parent", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 40, Parent: 0},  // overlaps a: 10..40 counts once
		{Name: "c", Start: 90, End: 120, Parent: 0}, // clipped to the parent: 90..100
		{Name: "grandchild", Start: 12, End: 18, Parent: 1},
		{Name: "other", Start: 0, End: 50, Parent: -1},
	}
	got := selfTimes(spans)
	want := []int64{100 - 30 - 10, 20 - 6, 20, 30, 6, 50}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestWorkloadGenerationIsSeeded(t *testing.T) {
	render := func(w *workload, seed int64) []byte {
		tr := newTraffic(w, seed)
		var b bytes.Buffer
		for i := 0; i < 20; i++ {
			b.Write(tr.warmup(i).body())
			for _, stream := range []uint64{streamSaturate, streamOpen, streamTraced, streamDrive} {
				b.Write(tr.at(stream, i).body())
			}
		}
		for _, d := range poissonSchedule(seed, w.rate, time.Second) {
			b.WriteString(d.String())
		}
		return b.Bytes()
	}
	for _, w := range workloads {
		a, b := render(w, 42), render(w, 42)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed generated different requests", w.name)
		}
		if bytes.Equal(a, render(w, 43)) {
			t.Errorf("%s: seeds 42 and 43 generated the same requests", w.name)
		}
	}
}

func TestSplitScheduleKeepsEveryRequestOnce(t *testing.T) {
	const seg, n = 700 * time.Millisecond, 5
	sched := poissonSchedule(7, 200, seg*n)
	segs, first := splitSchedule(sched, seg, n)
	i := 0
	for k, part := range segs {
		if first[k] != i {
			t.Fatalf("segment %d starts at request %d, want %d", k, first[k], i)
		}
		for j, off := range part {
			if off < 0 || off >= seg {
				t.Errorf("segment %d offset %s outside [0, %s)", k, off, seg)
			}
			if want := sched[i] - time.Duration(k)*seg; off != want {
				t.Errorf("segment %d request %d: offset %s, want %s", k, j, off, want)
			}
			i++
		}
	}
	if i != len(sched) {
		t.Errorf("segments hold %d requests, schedule has %d", i, len(sched))
	}
}

func TestWorkloadShapes(t *testing.T) {
	for _, w := range workloads {
		tr := newTraffic(w, 5)
		for i := 0; i < 200; i++ {
			q := tr.at(streamOpen, i)
			if q.PromptLen <= 0 || q.OutputLen <= 0 || (q.Prompt != nil && len(q.Prompt) != q.PromptLen) {
				t.Fatalf("%s request %d malformed: %d+%d tokens, %d prompt ids", w.name, i, q.PromptLen, q.OutputLen, len(q.Prompt))
			}
		}
	}
	rag, _ := workloadByName("rag-cold")
	tr := newTraffic(rag, 5)
	q := tr.at(streamOpen, 0)
	shared := false
	for _, p := range tr.prefixes {
		shared = shared || equalInts(q.Prompt[:ragPrefixTokens], p)
	}
	if !shared || q.PromptLen != ragPrefixTokens+ragUniqueTokens {
		t.Errorf("rag-cold request does not extend a shared prefix by %d tokens", ragUniqueTokens)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

const fullStream = `{"event":"admitted","id":7,"sim_seconds":0.1}
{"event":"first_token","id":7,"sim_seconds":0.2,"ttft_seconds":0.1}
{"event":"finished","id":7,"sim_seconds":0.5}
{"event":"result","result":{"id":7,"prompt_len":128,"output_len":32,"arrival_seconds":0.1,"admitted_seconds":0.1,"first_token_seconds":0.2,"finished_seconds":0.5,"wall_duration_ns":1000}}
`

func TestOutputChecks(t *testing.T) {
	chat, _ := workloadByName("chat")
	q := request{PromptLen: 128, OutputLen: 32}
	var tick int64
	now := func() int64 { tick += int64(time.Millisecond); return tick }

	var o outcome
	if err := parseStream(strings.NewReader(fullStream), now, &o); err != nil {
		t.Fatalf("complete stream rejected: %v", err)
	}
	if err := checkOutcome(chat, q, &o, true); err != nil {
		t.Errorf("matching result rejected: %v", err)
	}
	if o.ticket != 7 || o.admitted == 0 || o.firstToken <= o.admitted || o.done <= o.firstToken {
		t.Errorf("event times not recorded in order: %+v", o)
	}
	if got := eventsDropped(&o); got != 0 {
		t.Errorf("complete stream reported %d dropped events, want 0", got)
	}
	o.seen &^= seenFirstToken
	if got := eventsDropped(&o); got != 1 {
		t.Errorf("stream without a first_token event reported %d dropped, want 1", got)
	}
	if err := checkOutcome(chat, request{PromptLen: 128, OutputLen: 33}, &o, true); err == nil {
		t.Error("result with the wrong output_len accepted")
	}

	lines := strings.SplitAfter(fullStream, "\n")
	for name, stream := range map[string]string{
		"no result line":     strings.Join(lines[:3], ""),
		"cut mid-result":     strings.Join(lines[:3], "") + lines[3][:40],
		"error line":         lines[0] + `{"event":"error","error":"serve: server stopped"}` + "\n",
		"line after result":  fullStream + lines[2],
		"empty body":         "",
		"unknown event line": `{"event":"bogus"}` + "\n" + lines[3],
	} {
		var o outcome
		if err := parseStream(strings.NewReader(stream), now, &o); err == nil {
			t.Errorf("%s: stream accepted", name)
		}
	}
}
