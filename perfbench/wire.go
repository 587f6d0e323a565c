package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"secemb/internal/core"
	"secemb/internal/data"
	"secemb/internal/obs"
	"secemb/internal/serving"
	"secemb/internal/serving/backends"
	"secemb/internal/wire"
)

// wire-embed: secembd's serve path in process, with its serve defaults —
// Dual 4096×64 (threshold 4, int8), 4 backends on 4 shards, a 200 µs
// coalescing hold, a 2 ms shed grace, a 2 s request deadline, max batch 64
// and required tokens — behind a wire.Server over TLS on loopback. Two
// wire.Client connections each keep a fixed number of streams in flight.
// Request sizes follow the LLM case study's embedding access shape, the
// one llm-dual generates: per stream, a 64-id request (a prompt's prefill)
// and then 15 single-id requests (its decode steps), repeated. The stream
// count is a chosen load, not one measured from traffic: 4 in flight over
// 4 shards gives the coalescer requests to fuse, and with 8 in flight on
// a 2-vCPU host the latencies followed the scheduler and the host's steal
// (request p50 spread 0.13 over three runs, against 0.008 with 4).
const (
	wireRows      = 4096
	wireDim       = 64
	wireBackends  = 4
	wireMaxBatch  = 64
	wireMaxWait   = 200 * time.Microsecond
	wireShedWait  = 2 * time.Millisecond
	wireTimeout   = 2 * time.Second
	wireConns     = 2
	wireStreams   = 2              // in-flight streams per connection
	wireLarge     = llmPrompt      // ids in a prefill-shaped request
	wireCycle     = llmTokens      // one 64-id request, then 15 single-id ones
	wireTemplates = 16 * wireCycle // distinct requests per stream, cycled
)

// wireKey is the token key the server requires and the clients mint with.
var wireKey = wire.Key{0: 0x5e, 1: 0xc3, 31: 0x01}

type wireReq struct {
	key uint64
	ids []uint64
}

// wireStack is one built front door: serving group, server and clients.
type wireStack struct {
	reg     *obs.Registry
	group   *serving.Group
	srv     *wire.Server
	clients []*wire.Client
	probes  []*genProbe
	bytes   int64 // NumBytes of every backend's representations
}

func buildWire(tr *tracer) (*wireStack, error) {
	st := &wireStack{reg: obs.NewRegistry()}
	bes := make([]serving.Backend, wireBackends)
	for i := range bes {
		dual, d, err := newDual(wireRows, wireDim, core.ArchVaried, st.reg)
		if err != nil {
			return nil, err
		}
		l := &lane{} // one serving worker drives each backend
		p := newGenProbe(dual, d, tr, l)
		st.probes = append(st.probes, p)
		st.bytes += dual.NumBytes()
		var be serving.Backend = backends.NewEmbedding(p, wireMaxBatch)
		if tr != nil {
			be = &backendProbe{Backend: be, tr: tr, lane: l}
		}
		bes[i] = be
	}
	st.group = serving.NewGroup(bes, serving.GroupConfig{
		Coalesce: serving.CoalesceConfig{MaxWait: wireMaxWait},
		ShedWait: wireShedWait,
	}, serving.WithObserver(st.reg))
	srvTLS, cliTLS, err := wire.SelfSignedTLS()
	if err != nil {
		st.group.Close()
		return nil, err
	}
	st.srv = wire.NewServer(wire.ServerConfig{
		Group:        st.group,
		Dim:          wireDim,
		MaxBatch:     wireMaxBatch,
		Key:          wireKey,
		RequireToken: true,
		TLS:          srvTLS,
		Timeout:      wireTimeout,
		Reg:          st.reg,
	})
	addr, err := st.srv.Listen("127.0.0.1:0")
	if err != nil {
		st.group.Close()
		return nil, err
	}
	for i := 0; i < wireConns; i++ {
		// Each client gets its own TLS config and ALPN list. net/http's
		// HTTP/2-only Transport deletes "http/1.1" from NextProtos in
		// place, and SelfSignedTLS's list shares its backing array with a
		// package-level slice, so a shared list leaves ["h2", ""] behind
		// and every later TLS config fails its handshakes.
		tc := cliTLS.Clone()
		tc.NextProtos = append([]string(nil), cliTLS.NextProtos...)
		st.clients = append(st.clients, wire.NewClient(wire.ClientConfig{Addr: addr, Key: wireKey, TLS: tc}))
	}
	return st, nil
}

// close drains the server and the serving group and drops the connections.
func (st *wireStack) close() error {
	for _, c := range st.clients {
		c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return st.srv.DrainAll(ctx)
}

// wireTally counts failed requests by cause and keeps the first error.
type wireTally struct {
	transport, status, shed atomic.Int64
	once                    sync.Once
	first                   error
}

func (t *wireTally) fail(n *atomic.Int64, err error) error {
	n.Add(1)
	t.once.Do(func() { t.first = err })
	return err
}

func runWire(cfg config) (*outcome, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var st *wireStack
	setup, err := timeSetups(func() error {
		var err error
		st, err = buildWire(tr)
		return err
	}, func() { _ = st.close() })
	if err != nil {
		return nil, err
	}
	defer func() { _ = st.close() }()

	out := &outcome{}
	out.notef("wire-embed: %d×Dual(%d×%d, threshold %d) on %d shards, TLS, %d conns × %d streams",
		wireBackends, wireRows, wireDim, dualThreshold, st.group.Shards(), wireConns, wireStreams)

	streams := wireConns * wireStreams
	rng := rand.New(rand.NewSource(cfg.seed))
	reqs := make([][]wireReq, streams)
	for s := range reqs {
		for i := 0; i < wireTemplates; i++ {
			n := 1
			if i%wireCycle == 0 {
				n = wireLarge
			}
			ids := make([]uint64, n)
			for j := range ids {
				ids[j] = data.ZipfValue(rng, wireRows)
			}
			reqs[s] = append(reqs[s], wireReq{key: rng.Uint64(), ids: ids})
		}
	}
	// The reference is a direct Generate on a separately built, identically
	// seeded Dual; every row of the table is fingerprinted.
	refDual, _, err := newDual(wireRows, wireDim, core.ArchVaried, nil)
	if err != nil {
		return nil, err
	}
	every := make([]uint64, wireRows)
	for i := range every {
		every[i] = uint64(i)
	}
	ref, err := dheReference(refDual, every, floatDHE(wireRows, wireDim, core.ArchVaried))
	if err != nil {
		return nil, err
	}

	var (
		chk        checks
		tally      wireTally
		mu         sync.Mutex // guards sizes
		sizes      = newSizeBook(wireMaxBatch)
		all, small series
		waitSum    atomic.Int64
		waitCount  atomic.Int64
		next       = make([]int, streams)
	)
	// Streams start at different points of the cycle, so their 64-id
	// requests do not all arrive together.
	for s := range next {
		next[s] = s * wireCycle / streams
	}
	round := func(s int) error {
		r := reqs[s][next[s]%wireTemplates]
		next[s]++
		c := st.clients[s%wireConns]
		o := tr.begin()
		start := time.Now()
		res, err := c.Embed(context.Background(), r.key, r.ids)
		end := time.Now()
		if err != nil {
			return tally.fail(&tally.transport, err)
		}
		tr.end(o, "wire.embed", 0, 0, int64(res.BytesIn))
		mu.Lock()
		serr := sizes.observe(len(r.ids), res.BytesIn)
		mu.Unlock()
		if serr != nil {
			chk.fail("%v", serr)
		}
		switch {
		case res.Status == serving.StatusOverloaded:
			return tally.fail(&tally.shed, fmt.Errorf("shed: status %v", res.Status))
		case res.Status != serving.StatusOK:
			return tally.fail(&tally.status, fmt.Errorf("status %v", res.Status))
		}
		if err := checkRowHashes(res.Rows.Data, wireDim, r.ids, ref); err != nil {
			chk.fail("%d-id request: %v", len(r.ids), err)
		}
		if o.id != 0 {
			waitSum.Add(int64(res.QueueWait))
			waitCount.Add(1)
		}
		all.add(end, end.Sub(start), 1)
		if len(r.ids) <= dualThreshold {
			small.add(end, end.Sub(start), 1)
		}
		return nil
	}
	runPhase(warmup, streams, nil, round)
	all.reset()
	small.reset()
	serverNs := st.reg.Histogram("wire_request_ns")
	coalesceNs := st.reg.Histogram("serving_coalesce_wait_ns")
	server0, serverN0 := serverNs.Sum(), serverNs.Count()
	coalesce0, coalesceN0 := coalesceNs.Sum(), coalesceNs.Count()
	ph := runPhase(cfg.seconds, streams, tr, round)
	out.attempted, out.failed = ph.attempted, ph.failed
	out.notef("wire-embed: failed by cause: transport=%d status=%d shed=%d",
		tally.transport.Load(), tally.status.Load(), tally.shed.Load())
	if tally.first != nil {
		out.notef("wire-embed: first failure: %v", tally.first)
	}
	chk.report(out)
	if err := sizes.monotone(); err != nil {
		out.problemf("%v", err)
	}
	if err := checkRegimes(st.reg, st.probes); err != nil {
		out.problemf("%v", err)
	}

	if !cfg.trace {
		rps := sliceRate(ph.start, &all)
		p50, p90, small90, n := all.sliceQuantile(0.5), all.sliceQuantile(0.9), small.sliceQuantile(0.9), all.count()
		cpu := ph.perUnit(all.units())
		all.drop()
		small.drop()
		setEndToEnd(out, setup, st.bytes, liveHeapMB(st), cpu, p50)
		out.notef("wire-embed: rps=%.1f p50_ms=%.3f p90_ms=%.3f small_p90_ms=%.3f cpu_us_per_request=%.1f requests=%d steal_pct=%.1f",
			rps, ms(p50), ms(p90), ms(small90), us(cpu), n, ph.stealPct)
		return out, nil
	}
	vals := map[string]float64{}
	spans := tr.byName()
	coreLayers(st.probes, spans, vals)
	var lookups int64
	for _, p := range st.probes {
		lookups += p.ids[core.CircuitORAM].Load()
	}
	oramLayers(st.reg, lookups, vals)
	rtt := spans["wire.embed"]
	vals["wire.rtt_us"] = rtt.meanUS()
	vals["wire.resp_bytes"] = rtt.meanN()
	if n := serverNs.Count() - serverN0; n > 0 {
		vals["wire.server_us"] = float64(serverNs.Sum()-server0) / float64(n) / 1e3
		vals["wire.outside_server_us"] = vals["wire.rtt_us"] - vals["wire.server_us"]
	}
	if n := waitCount.Load(); n > 0 {
		vals["serving.queue_wait_us"] = float64(waitSum.Load()) / float64(n) / 1e3
	}
	if n := coalesceNs.Count() - coalesceN0; n > 0 {
		vals["serving.coalesce_wait_us"] = float64(coalesceNs.Sum()-coalesce0) / float64(n) / 1e3
	}
	exec := spans["serving.execute"]
	vals["serving.execute_us"] = exec.meanUS()
	vals["serving.requests_per_execute"] = exec.meanN()
	phaseLayers(ph, vals)
	out.setLayers(vals)
	path, err := tr.write("wire-embed", cfg.seed)
	if err != nil {
		return nil, err
	}
	out.notef("spans: %s", path)
	return out, nil
}
