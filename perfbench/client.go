package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"zipserv/internal/serve"
)

// Progress events a stream may carry before its result line.
const (
	seenAdmitted = 1 << iota
	seenFirstToken
	seenFinished
)

// epoch anchors every timestamp the benchmark records.
var epoch = time.Now()

// now returns monotonic nanoseconds since epoch.
func now() int64 { return int64(time.Since(epoch)) }

// outcome is one request as the client saw it. Times are nanoseconds
// since epoch; zero was not observed. It holds no pointers, so the
// garbage collector never scans the tens of thousands a run keeps.
type outcome struct {
	due        int64 // when the schedule said to send it
	send       int64 // when the client started the HTTP request
	admitted   int64 // arrival of the "admitted" line
	firstToken int64 // arrival of the "first_token" line
	done       int64 // arrival of the "result" line
	ticket     int   // the request id the server assigned
	seen       int   // seen* bits of the progress events received
	res        result
	bytes      int64 // response body size
}

// result holds the fields of the final result line the checks and
// metrics read (serve.Result names them).
type result struct {
	ID           int           `json:"id"`
	PromptLen    int           `json:"prompt_len"`
	OutputLen    int           `json:"output_len"`
	CachedTokens int           `json:"cached_tokens"`
	Arrival      float64       `json:"arrival_seconds"`
	FirstToken   float64       `json:"first_token_seconds"`
	Finished     float64       `json:"finished_seconds"`
	WallDuration time.Duration `json:"wall_duration_ns"`
}

func (o *outcome) latency() time.Duration { return time.Duration(o.done - o.due) }
func (o *outcome) ttft() time.Duration    { return time.Duration(o.firstToken - o.due) }
func (o *outcome) latencyMs() float64     { return float64(o.latency()) / 1e6 }
func (o *outcome) ttftMs() float64        { return float64(o.ttft()) / 1e6 }

// do sends one streaming /v1/generate request, reads its NDJSON response
// to the end and checks it. measured marks requests after warm-up.
func (st *stack) do(ctx context.Context, q request, due int64, measured bool) (outcome, error) {
	o := outcome{due: due}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, st.base+"/v1/generate", bytes.NewReader(q.body()))
	if err != nil {
		return o, err
	}
	req.Header.Set("Content-Type", "application/json")
	o.send = now()
	resp, err := st.client.Do(req)
	if err != nil {
		return o, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return o, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	cr := &countingReader{r: resp.Body}
	err = parseStream(cr, now, &o)
	o.bytes = cr.n
	if err == nil {
		err = checkOutcome(st.w, q, &o, measured)
	}
	return o, err
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// streamLine is one NDJSON line of a streaming /v1/generate response: a
// progress event, the final result, or an error.
type streamLine struct {
	Event  string  `json:"event"`
	Error  string  `json:"error"`
	Result *result `json:"result"`
}

// parseStream reads a streaming response, stamping each line's arrival
// with now. The stream must end in exactly one result line; a stream that
// stops before it (truncated), carries an error line or continues after
// the result is rejected.
func parseStream(r io.Reader, now func() int64, o *outcome) error {
	sc := bufio.NewScanner(r)
	gotResult := false
	for sc.Scan() {
		t := now()
		if gotResult {
			return errors.New("stream continues after its result line")
		}
		var line streamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return fmt.Errorf("bad NDJSON line %q: %w", sc.Text(), err)
		}
		switch line.Event {
		case string(serve.EventAdmitted):
			if o.admitted == 0 {
				o.admitted = t
			}
			o.seen |= seenAdmitted
		case string(serve.EventFirstToken):
			if o.firstToken == 0 {
				o.firstToken = t
			}
			o.seen |= seenFirstToken
		case string(serve.EventFinished):
			o.seen |= seenFinished
		case string(serve.EventPreempted), string(serve.EventHandoff):
		case "result":
			if line.Result == nil {
				return errors.New("result line without a result")
			}
			o.res = *line.Result
			o.ticket = line.Result.ID
			o.done = t
			if o.firstToken == 0 {
				// The first_token event is best effort; the result line
				// proves the first token was produced by now.
				o.firstToken = t
			}
			gotResult = true
		case "error":
			return fmt.Errorf("server error: %s", line.Error)
		default:
			return fmt.Errorf("unknown stream event %q", line.Event)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("reading stream: %w", err)
	}
	if !gotResult {
		return errors.New("stream ended without a result line")
	}
	return nil
}

// eventsDropped returns how many of the progress events the request
// should have streamed never arrived (the server drops them for slow
// readers; the result line is never dropped).
func eventsDropped(o *outcome) int {
	missing := 0
	for bit := 1; bit <= seenFinished; bit <<= 1 {
		if o.seen&bit == 0 {
			missing++
		}
	}
	return missing
}

// checkOutcome applies the per-request output checks to a completed
// request. measured marks requests after warm-up, which on rag-cold must
// all hit the prefix cache.
func checkOutcome(w *workload, q request, o *outcome, measured bool) error {
	switch {
	case o.res.PromptLen != q.PromptLen || o.res.OutputLen != q.OutputLen:
		return fmt.Errorf("result is %d+%d tokens, request was %d+%d",
			o.res.PromptLen, o.res.OutputLen, q.PromptLen, q.OutputLen)
	case o.res.Finished < o.res.FirstToken || o.res.FirstToken < o.res.Arrival:
		return fmt.Errorf("result timestamps out of order: arrival %v, first token %v, finished %v",
			o.res.Arrival, o.res.FirstToken, o.res.Finished)
	case measured && w.wantCached && o.res.CachedTokens <= 0:
		return fmt.Errorf("request %d reused no cached prefix", o.ticket)
	}
	return nil
}
