package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary. Spans of one caller-side
// request share Req (the id of that request's root span). Server-side work
// of wire-embed cannot be joined to a request — the frame carries no
// request id — so each serving.execute span roots its own tree and the
// server-side figures are reported as means.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	N      int64  `json:"n"` // ids, requests or bytes, by span name
}

// tracer keeps spans in memory while enabled. A nil tracer records nothing.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) enabled() bool     { return t != nil && t.on.Load() }
func (t *tracer) setEnabled(b bool) { t.on.Store(b) }

// open is a span that has started but not ended.
type open struct {
	id    int64 // 0 when the tracer was off at begin
	start time.Time
}

// begin starts a span; its id is known before it ends, so children can
// name it as their parent.
func (t *tracer) begin() open {
	if !t.enabled() {
		return open{}
	}
	return open{id: t.ids.Add(1), start: time.Now()}
}

// end records a span begun with begin. For a root span pass req = 0: its
// own id becomes the request id.
func (t *tracer) end(o open, name string, parent, req, n int64) {
	if o.id == 0 {
		return
	}
	now := time.Now()
	if req == 0 && parent == 0 {
		req = o.id
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: o.id, Parent: parent, Req: req, Name: name, N: n,
		Start: int64(o.start.Sub(t.epoch)), End: int64(now.Sub(t.epoch)),
	})
	t.mu.Unlock()
}

// lane carries the enclosing span from a caller into the calls it makes on
// the same goroutine: the workload loop into the generator it drives, or a
// serving worker's Execute into its backend's generator.
type lane struct {
	cur, req int64
}

func (l *lane) enter(o open, req int64) (prevCur, prevReq int64) {
	prevCur, prevReq = l.cur, l.req
	if o.id != 0 {
		l.cur = o.id
		if req == 0 {
			req = o.id
		}
		l.req = req
	}
	return prevCur, prevReq
}

func (l *lane) leave(prevCur, prevReq int64) { l.cur, l.req = prevCur, prevReq }

// agg summarizes the spans of one name.
type agg struct {
	count int64
	total time.Duration
	n     int64
}

func (a agg) meanUS() float64 {
	if a.count == 0 {
		return 0
	}
	return us(a.total) / float64(a.count)
}

func (a agg) meanN() float64 {
	if a.count == 0 {
		return 0
	}
	return float64(a.n) / float64(a.count)
}

// byName aggregates the recorded spans.
func (t *tracer) byName() map[string]agg {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]agg{}
	for _, s := range t.spans {
		a := out[s.Name]
		a.count++
		a.total += time.Duration(s.End - s.Start)
		a.n += s.N
		out[s.Name] = a
	}
	return out
}

// selfMeanUS is the mean over the spans named name of their self time with
// respect to child: each span's duration minus that of its children named
// child.
func (t *tracer) selfMeanUS(name, child string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int64]time.Duration{}
	for _, s := range t.spans {
		if s.Name == child && s.Parent != 0 {
			kids[s.Parent] += time.Duration(s.End - s.Start)
		}
	}
	var total time.Duration
	var count int
	for _, s := range t.spans {
		if s.Name == name {
			total += time.Duration(s.End-s.Start) - kids[s.ID]
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return us(total) / float64(count)
}

// write stores the spans as JSON lines under traceDir and returns the
// file's path.
func (t *tracer) write(workload string, seed int64) (string, error) {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err = enc.Encode(&t.spans[i]); err != nil {
			break
		}
	}
	n := len(t.spans)
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	return fmt.Sprintf("%s (%d spans)", path, n), nil
}

// layerMetrics lists every per-layer metric with its unit. A traced run
// reports all of them; a layer the workload does not exercise reads 0.
var layerMetrics = []struct{ name, unit string }{
	{"wire.rtt_us", "us"},
	{"wire.server_us", "us"},
	{"wire.outside_server_us", "us"},
	{"wire.resp_bytes", "bytes"},
	{"serving.queue_wait_us", "us"},
	{"serving.coalesce_wait_us", "us"},
	{"serving.execute_us", "us"},
	{"serving.requests_per_execute", "count"},
	{"core.oram_call_us", "us"},
	{"core.dhe_call_us", "us"},
	{"core.scan_call_us", "us"},
	{"core.ids_per_call", "count"},
	{"oram.accesses_per_lookup", "count"},
	{"oram.buckets_per_access", "count"},
	{"oram.words_per_access", "count"},
	{"oram.cmov_per_access", "count"},
	{"oram.stash_scans_per_access", "count"},
	{"oram.stash_max", "count"},
	{"dhe.flops_per_id", "count"},
	{"dhe.int8_active", "count"},
	{"hashenc.encode_us", "us"},
	{"dlrm.bottom_ms", "ms"},
	{"dlrm.embed_ms", "ms"},
	{"dlrm.interact_ms", "ms"},
	{"dlrm.top_ms", "ms"},
	{"llm.prefill_ms", "ms"},
	{"llm.decode_ms", "ms"},
	{"llm.argmax_us", "us"},
	{"llm.trunk_decode_ms", "ms"},
	{"tensor.pool_chunks_per_op", "count"},
	{"tensor.pool_inline_per_op", "count"},
	{"go.alloc_bytes_per_op", "bytes"},
	{"go.gc_per_s", "1/s"},
	{"trace.overhead_pct", "%"},
}

// setLayers reports every per-layer metric, taking values from vals and 0
// for layers the workload does not reach.
func (o *outcome) setLayers(vals map[string]float64) {
	known := map[string]bool{}
	for _, m := range layerMetrics {
		known[m.name] = true
		o.set(m.name, vals[m.name], m.unit)
	}
	for name := range vals {
		if !known[name] {
			panic("perfbench: unlisted per-layer metric " + name)
		}
	}
}

// phaseLayers derives the metrics every traced phase has: the Go runtime
// and worker-pool counts over the untraced slices (spans allocate, so the
// traced slices would overstate both) and the tracing overhead.
func phaseLayers(p *phaseResult, vals map[string]float64) {
	off, on := p.slices[0], p.slices[1]
	if n := off.rounds.Load(); n > 0 {
		vals["go.alloc_bytes_per_op"] = float64(off.allocBytes) / float64(n)
		vals["tensor.pool_chunks_per_op"] = float64(off.chunks) / float64(n)
		vals["tensor.pool_inline_per_op"] = float64(off.inlined) / float64(n)
	}
	if off.elapsed > 0 {
		vals["go.gc_per_s"] = float64(off.gcs) / off.elapsed.Seconds()
	}
	if on.rounds.Load() > 0 && off.rounds.Load() > 0 {
		offRate := float64(off.rounds.Load()) / off.elapsed.Seconds()
		onRate := float64(on.rounds.Load()) / on.elapsed.Seconds()
		vals["trace.overhead_pct"] = (offRate/onRate - 1) * 100
	}
}
