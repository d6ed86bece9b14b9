package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/domains"
	"repro/internal/ffi"
	"repro/internal/gatetrace"
	"repro/internal/profstore"
	"repro/internal/resilience"
	"repro/internal/supervise"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vkey"
	"repro/internal/vm"
)

// The tenants world: the served request path of pkru-servo -domains,
// rebuilt call for call over the public packages.
const (
	tenantCount = 64
	tenantHeap  = 64 << 10
	tenantPages = tenantHeap / vm.PageSize
	// Requests read the first tenantReadPages pages of a tenant's heap;
	// each worker writes its own page after them. Two workers serving one
	// tenant at once then never read a word the other writes: the
	// simulated memory has no atomic words, so such a pair is a Go data
	// race.
	tenantReadPages  = tenantPages - maxTenantWorkers
	readsPerRequest  = 4
	maxTenantWorkers = 2   // closed-loop clients (--workers), one per CPU at most
	zipfS            = 1.1 // tenant popularity exponent
	streamLen        = 1 << 16
	samplerInterval  = 8       // pkru-servo's -sample-interval default
	ringCap          = 256     // pkru-servo's trace ring
	retainedCap      = 256     // pkru-servo's retained-trace ring
	tenantSetups     = 61      // world builds per run; setup_s is their median
	tenantSpans      = 1 << 20 // span buffer of a traced worker
	secretValue      = 0x5ec2_e700_dead_beef
)

// tenantOnly names the per-layer rows only the tenants workload has.
const tenantOnly = "resilience.admit_ns, gatetrace.request_ns, supervise.shield_self_ns, ffi.call_self_ns, vm.body_ns"

// browserOnly names the per-layer rows only the browser workloads have.
const browserOnly = "browser.invoke_us, browser.housekeeping_us, core.profile_ms, browser.build_ms, browser.load_ms, " +
	"jsengine.steps_per_us, ffi.mpk_over_base, heap.alloc_ns, core.mu_share"

// stamp is the word every page of a tenant's heap holds at its start.
func stamp(tenant int, page uint64) uint64 {
	return 0x7e4a_0000_0000_0000 | uint64(tenant)<<16 | page
}

// tenantWorld is one built serving plane with its tenants.
type tenantWorld struct {
	m        *domains.Manager
	rt       *ffi.Runtime
	reg      *telemetry.Registry
	tracer   *gatetrace.Tracer
	sup      *supervise.Supervisor
	breakers *resilience.Group
	setup    *vm.Thread // trusted
	secret   vm.Addr
	names    []string
	labels   []string // Shield labels, "<tenant>.work"
	bases    []vm.Addr
	workers  []*tenantWorker

	// pkru-servo's request-path counters.
	entries, reads, denied, leaks, dropped, refused, shed *telemetry.Counter
}

// buildTenantWorld builds the world runDomains builds: a domain manager
// with the observers it attaches (telemetry registry, trace ring,
// crossing sampler, request tracer), a quarantining supervisor, one
// breaker group, a trusted secret, and tenantCount tenants, each with a
// fully touched heap and a domain-bound library whose "work" entry is
// the benchmark's work body.
func buildTenantWorld() (*tenantWorld, error) {
	space := vm.NewSpace()
	m, err := domains.NewManager(space)
	if err != nil {
		return nil, err
	}
	reg := telemetry.NewRegistry()
	m.SetTelemetry(reg)
	ring := trace.NewRing(ringCap)
	tracer := gatetrace.New(gatetrace.Config{Registry: reg, Capacity: retainedCap})
	m.SetTracing(tracer)
	w := &tenantWorld{
		m: m, reg: reg, tracer: tracer,
		entries: reg.Counter("pkruservo_domain_entries_total", "Domain requests completed by the tenant workload."),
		reads:   reg.Counter("pkruservo_domain_reads_total", "In-domain reads of the tenant's own pool that succeeded."),
		denied:  reg.Counter("pkruservo_domain_denied_total", "Cross-tenant probes correctly denied by the hardware keys."),
		leaks:   reg.Counter("pkruservo_domain_leaks_total", "Cross-tenant probes that wrongly succeeded (must stay 0)."),
		dropped: reg.Counter("pkruservo_domain_dropped_total", "Requests the recovery policy could not save."),
		refused: reg.Counter("pkruservo_domain_refused_total", "Requests refused at the gate."),
		shed:    reg.Counter("pkruservo_domain_shed_total", "Requests shed at admission by an open tenant breaker, never gated."),
	}
	ffiReg := ffi.NewRegistry()
	w.rt = ffi.NewRuntime(ffiReg, m.Allocator(), nil, ffi.GatesOn)
	w.rt.SetTelemetry(reg)
	w.rt.SetTrace(ring)
	w.rt.SetCrossingSink(profstore.NewSampler(profstore.SamplerConfig{
		Interval: samplerInterval, Telemetry: reg, Ring: ring}))
	w.sup = supervise.New(supervise.Config{Policy: supervise.Quarantine},
		supervise.Deps{Alloc: m.Allocator(), Ring: ring, Telemetry: reg})
	w.breakers = resilience.NewGroup(resilience.Config{})
	w.breakers.SetTelemetry(reg)

	w.setup = vm.NewThread(space, nil)
	if w.secret, err = m.AllocTrusted(64); err != nil {
		return nil, err
	}
	if err := w.setup.Store64(w.secret, secretValue); err != nil {
		return nil, err
	}
	for i := 0; i < tenantCount; i++ {
		name := fmt.Sprintf("tenant%03d", i)
		d, err := m.AddDomain(name)
		if err != nil {
			return nil, err
		}
		base, err := m.Alloc(d, tenantHeap)
		if err != nil {
			return nil, err
		}
		for p := uint64(0); p < tenantPages; p++ {
			if err := w.setup.Store64(base+vm.Addr(p*vm.PageSize), stamp(i, p)); err != nil {
				return nil, err
			}
		}
		lib, err := ffiReg.Library(name, ffi.Untrusted)
		if err != nil {
			return nil, err
		}
		lib.Define("work", w.work)
		m.BindLibrary(w.rt, name, d)
		w.names = append(w.names, name)
		w.labels = append(w.labels, name+".work")
		w.bases = append(w.bases, base)
	}
	return w, nil
}

// tenantWorker is one closed-loop client: its own ffi thread, request
// stream, latency log and span buffer. Everything a request needs is
// preallocated here, so the loop itself allocates nothing.
type tenantWorker struct {
	w      *tenantWorld
	id     uint64
	th     *ffi.Thread
	stream []request
	next   int
	log    *opLog
	spans  *spanBuf // nil when untraced

	// The request in flight, read by call and by the work body.
	op         uint32
	name       string
	args       [9]uint64
	shieldSpan int32
	callSpan   int32
	call       func() error // the Shield body, built once

	// Correctness checks made by the work body.
	wrong, scrubbed, secretReads, secretProbes uint64
	firstWrong                                 string
}

func (w *tenantWorld) newWorker(id int, stream []request) *tenantWorker {
	wk := &tenantWorker{w: w, id: uint64(id), th: w.rt.NewThread(), stream: stream,
		shieldSpan: -1, callSpan: -1}
	wk.call = func() error {
		wk.callSpan = wk.spans.begin(spCall, wk.shieldSpan, wk.op)
		_, err := wk.th.Call(wk.name, "work", wk.args[:]...)
		wk.spans.end(wk.callSpan)
		return err
	}
	return wk
}

// work is every tenant library's entry point, run inside the tenant's
// domain: it reads 4 pages and writes 1 page of the tenant's own heap
// and probes one page of another tenant's, which must fault. One
// request in 64 probes the trusted secret instead, with a load and a
// store that must both fault.
// args: worker, tenant, heap base, 4 read pages, write page, probe address.
func (w *tenantWorld) work(t *ffi.Thread, a []uint64) ([]uint64, error) {
	wk := w.workers[a[0]]
	sp := wk.spans.begin(spBody, wk.callSpan, wk.op)
	defer wk.spans.end(sp)
	tenant, base := int(a[1]), vm.Addr(a[2])
	for _, page := range a[3 : 3+readsPerRequest] {
		v, err := t.Load64(base + vm.Addr(page*vm.PageSize))
		if err != nil {
			return nil, err
		}
		w.reads.Inc()
		wk.check(tenant, page, v)
	}
	page := a[3+readsPerRequest]
	if err := t.Store64(base+vm.Addr(page*vm.PageSize), stamp(tenant, page)); err != nil {
		return nil, err
	}
	probe := vm.Addr(a[4+readsPerRequest])
	if v, err := t.Load64(probe); err != nil {
		w.denied.Inc()
	} else {
		w.leaks.Inc()
		if v == secretValue {
			wk.secretReads++
		}
	}
	if probe == w.secret {
		wk.secretProbes++
		if err := t.Store64(probe, stamp(tenant, 0)); err != nil {
			w.denied.Inc()
		} else {
			w.leaks.Inc()
		}
	}
	return nil, nil
}

// check classifies one own-heap read. A tenant whose pool the
// supervisor quarantined reads zeros where the scrub reached; that is
// the program's contract, not a wrong result. The epoch is bumped under
// the same lock as the scrub, so a zero read always finds it.
func (wk *tenantWorker) check(tenant int, page, v uint64) {
	switch {
	case v == stamp(tenant, page):
	case v == secretValue:
		wk.secretReads++
	case v == 0 && wk.w.epoch(tenant) > 0:
		wk.scrubbed++
	default:
		if wk.wrong == 0 {
			wk.firstWrong = fmt.Sprintf("tenant %d page %d read %#x, want %#x", tenant, page, v, stamp(tenant, page))
		}
		wk.wrong++
	}
}

func (w *tenantWorld) epoch(tenant int) uint64 {
	e, _ := w.m.Allocator().DomainEpoch(w.names[tenant])
	return e
}

// mark publishes a breaker transition the way pkru-servo does: an
// instant on the request's trace, and the pinning side effect (open
// pins every other tenant's slot, closed releases them).
func (w *tenantWorld) mark(tc *gatetrace.Context, tenant string, tr *resilience.Transition) {
	if tr == nil {
		return
	}
	tc.MarkBreaker(tr.To.String(), tenant, tr.Reason)
	if tr.To != resilience.Open && tr.To != resilience.Closed {
		return
	}
	for _, n := range w.names {
		if n == tenant {
			continue
		}
		if tr.To == resilience.Open {
			_ = w.m.Pin(n) // best effort, as in pkru-servo
		} else {
			_ = w.m.Unpin(n)
		}
	}
}

// loop runs requests closed-loop until the deadline, or until a traced
// worker's span buffer is full, so that every request it runs is traced.
func (wk *tenantWorker) loop(deadline time.Time) {
	w, th := wk.w, wk.th
	wk.log.begin()
	defer wk.log.end()
	for {
		t0 := time.Now()
		if !t0.Before(deadline) || wk.spans.full() {
			return
		}
		rq := &wk.stream[wk.next]
		wk.next = (wk.next + 1) % len(wk.stream)
		wk.op++
		op, tr := wk.op, wk.spans
		name := w.names[rq.tenant]
		root := tr.root(spOp, op)
		if _, ok := w.m.Domain(name); !ok {
			tr.end(root) // cannot happen without churn; kept call for call
			continue
		}
		sp := tr.begin(spTraceStart, root, op)
		tc := w.tracer.Start(name)
		tr.end(sp)
		sp = tr.begin(spAllow, root, op)
		btr, aerr := w.breakers.Allow(name)
		tr.end(sp)
		if aerr != nil {
			w.shed.Inc()
			sp = tr.begin(spTraceFinish, root, op)
			tc.Finish()
			tr.end(sp)
			tr.end(root)
			continue
		}
		w.mark(tc, name, btr)
		sp = tr.begin(spTraceBind, root, op)
		th.SetTraceContext(tc)
		w.tracer.Bind(th.VM, tc)
		tr.end(sp)
		qBefore := w.sup.DomainQuarantines(name)

		wk.name = name
		a := &wk.args
		a[0], a[1], a[2] = wk.id, uint64(rq.tenant), uint64(w.bases[rq.tenant])
		for k, p := range rq.reads {
			a[3+k] = uint64(p)
		}
		a[3+readsPerRequest] = tenantReadPages + wk.id
		probe := w.secret
		if rq.probeTenant != secretProbe {
			probe = w.bases[rq.probeTenant] + vm.Addr(uint64(rq.probePage)*vm.PageSize)
		}
		a[4+readsPerRequest] = uint64(probe)
		wk.shieldSpan = tr.begin(spShield, root, op)
		err := w.sup.Shield(th, w.labels[rq.tenant], wk.call)
		tr.end(wk.shieldSpan)

		sp = tr.begin(spTraceUnbind, root, op)
		w.tracer.Unbind(th.VM)
		th.SetTraceContext(nil)
		tr.end(sp)
		if burned := w.sup.DomainQuarantines(name) - qBefore; burned > 0 {
			w.mark(tc, name, w.breakers.RecordBurn(name, burned))
		}
		sp = tr.begin(spRecord, root, op)
		switch {
		case err == nil:
			w.entries.Inc()
			w.mark(tc, name, w.breakers.RecordSuccess(name))
		case isDrop(err):
			w.dropped.Inc()
			w.mark(tc, name, w.breakers.RecordFault(name))
		default:
			w.refused.Inc()
		}
		tr.end(sp)
		sp = tr.begin(spTraceFinish, root, op)
		tc.Finish()
		tr.end(sp)
		d := time.Since(t0)
		tr.end(root)
		wk.log.op(d, err == nil)
	}
}

// isDrop reports whether the supervisor gave the request up after a
// compartment failure (pkru-servo's "dropped"), as opposed to a refusal.
func isDrop(err error) bool {
	var cerr *supervise.CompartmentError
	var fault *vm.Fault
	return errors.As(err, &cerr) || errors.As(err, &fault)
}

// tenantReading is a snapshot of the program's counters.
type tenantReading struct {
	entries, dropped, refused, shed uint64
	vkey                            vkey.Stats
	regReading                      // vm loads and stores, gate latency
	crossings                       float64
	allocsMT, allocsMU              uint64
	poolAllocs                      map[string]uint64 // per tenant pool
	rt                              rtSnap
}

// allocsMUSince returns the MU and tenant-pool allocations made since from.
// A quarantine gives a pool a fresh heap whose count restarts at zero.
func (r tenantReading) allocsMUSince(from tenantReading) uint64 {
	n := r.allocsMU - from.allocsMU
	for pool, c := range r.poolAllocs {
		if c >= from.poolAllocs[pool] {
			c -= from.poolAllocs[pool]
		}
		n += c
	}
	return n
}

func (w *tenantWorld) read() tenantReading {
	r := tenantReading{
		entries: w.entries.Value(), dropped: w.dropped.Value(), refused: w.refused.Value(), shed: w.shed.Value(),
		vkey: w.m.Table().Stats(), regReading: readRegistry(w.reg),
	}
	r.crossings, _ = w.reg.CounterValue("pkrusafe_gate_crossings_total")
	alloc := w.m.Allocator()
	st := alloc.Stats()
	r.allocsMT, r.allocsMU = st.Trusted.Allocs, st.Untrusted.Allocs
	r.poolAllocs = make(map[string]uint64, tenantCount)
	for _, n := range alloc.DomainPools() {
		if ds, ok := alloc.DomainStats(n); ok {
			r.poolAllocs[n] = ds.Allocs
		}
	}
	r.rt = readRuntime()
	return r
}

// tenantPhase is one measured phase of the tenants workload.
type tenantPhase struct {
	elapsed   time.Duration // wall time
	attempted uint64
	fails     failures
	from, to  tenantReading
	log       *opLog // every worker's, merged
	rt        rtSnap
	spans     []*spanBuf
	okPerSec  float64
}

// phase runs every worker closed-loop for the given time; a traced
// phase ends early when a worker's span buffer fills.
func (w *tenantWorld) phase(d time.Duration, traced bool) *tenantPhase {
	p := &tenantPhase{log: &opLog{lat: new(hist), rawLat: new(hist)}}
	epoch := time.Now()
	for _, wk := range w.workers {
		wk.log = newOpLog(newHostClock())
		wk.spans = nil
		if traced {
			wk.spans = newSpanBuf(epoch, tenantSpans)
			p.spans = append(p.spans, wk.spans)
		}
	}
	p.from = w.read()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, wk := range w.workers {
		wg.Add(1)
		go func(wk *tenantWorker) {
			defer wg.Done()
			wk.loop(deadline)
		}(wk)
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	p.to = w.read()
	p.rt.add(p.from.rt, p.to.rt)
	ok := p.to.entries - p.from.entries
	p.fails = failures{
		drop:    p.to.dropped - p.from.dropped,
		refused: p.to.refused - p.from.refused,
		shed:    p.to.shed - p.from.shed,
	}
	p.attempted = ok + p.fails.total()
	for _, wk := range w.workers {
		p.log.merge(wk.log, len(w.workers))
	}
	p.okPerSec = ratio(float64(ok), p.log.busy.Seconds())
	return p
}

// runTenants runs the tenants workload with cfg.workers clients, each
// on its own P. A --trace 0 run is one untraced phase. A --trace 1 run
// first makes a traced phase on the world, of at most half its seconds
// (less when the span buffers fill), and an untraced one for the rest.
func runTenants(cfg config) (*outcome, error) {
	runtime.GOMAXPROCS(cfg.workers)
	var setups, rawSetups []time.Duration
	var w *tenantWorld
	clock := newHostClock()
	for i := 0; i < tenantSetups; i++ {
		// Collect the previous world first, so that peak_rss_mb measures
		// one world and not however many the collector let pile up.
		w = nil
		runtime.GC()
		setup, raw, err := clock.timed(func() (err error) {
			w, err = buildTenantWorld()
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("build world: %w", err)
		}
		setups, rawSetups = append(setups, setup), append(rawSetups, raw)
	}
	for i, s := range tenantStreams(cfg.seed, cfg.workers, streamLen) {
		w.workers = append(w.workers, w.newWorker(i, s))
	}

	out := &outcome{}
	d := cfg.seconds
	var traced *tenantPhase
	if cfg.trace {
		traced = w.phase(d/2, true)
		d -= traced.elapsed
	}
	un := w.phase(d, false)
	out.attempted, out.fails = un.attempted, un.fails
	out.notes = append(out.notes, fmt.Sprintf("%d tenants on %d hardware slots, %d closed-loop workers, Zipf s=%.1f",
		tenantCount, un.to.vkey.Slots, cfg.workers, zipfS))
	w.verify(out)
	if !cfg.trace {
		out.metrics = append(endToEndMetrics(setups, rawSetups, un.log, un.attempted, un.fails),
			metric{name: "peak_rss_mb", value: peakRSSMB(), unit: "MB", note: "of the process"})
		return out, nil
	}
	summary, err := writeSpans(spanPath(cfg), traced.spans)
	if err != nil {
		return nil, err
	}
	out.notes = append(out.notes, summary, "n/a: "+browserOnly+" (this workload never calls jsengine or browser)")
	out.metrics = append(tenantLayers(un, traced, w), runtimeLayers(un.rt, un.attempted, ratio(un.okPerSec, traced.okPerSec))...)
	return out, nil
}

// verify turns the work body's checks and the program's isolation
// counters into correctness problems.
func (w *tenantWorld) verify(out *outcome) {
	var wrong, scrubbed, secretReads, secretProbes uint64
	for _, wk := range w.workers {
		wrong += wk.wrong
		scrubbed += wk.scrubbed
		secretReads += wk.secretReads
		secretProbes += wk.secretProbes
		if wk.wrong > 0 {
			out.problem("own-heap read: %s", wk.firstWrong)
		}
	}
	if wrong > 0 {
		out.problem("%d own-heap reads returned another value than the tenant's stamp", wrong)
	}
	if n := w.leaks.Value(); n > 0 {
		out.problem("%d cross-tenant probes succeeded", n)
	}
	if secretReads > 0 {
		out.problem("the trusted secret was read %d times", secretReads)
	}
	if v, err := w.setup.Load64(w.secret); err != nil || v != secretValue {
		out.problem("trusted secret changed: %#x (%v)", v, err)
	}
	out.notes = append(out.notes, fmt.Sprintf("checks: reads=%d denied-probes=%d leaks=%d secret-probes=%d scrubbed-reads=%d quarantined-tenants=%d",
		w.reads.Value(), w.denied.Value(), w.leaks.Value(), secretProbes, scrubbed, w.quarantined()))
}

func (w *tenantWorld) quarantined() int {
	n := 0
	for i := range w.names {
		if w.epoch(i) > 0 {
			n++
		}
	}
	return n
}

// tenantLayers derives the per-layer table of a traced tenants run.
func tenantLayers(un, traced *tenantPhase, w *tenantWorld) []metric {
	ops := float64(un.attempted)
	f, t := un.from, un.to
	bufs := traced.spans
	p := func(vals []int64, q float64) float64 { return quantile(sortedCopy(vals), q) }
	callSelf := selfOf(bufs, spCall)
	return []metric{
		{name: "browser.dom_ops_per_op", value: 0, unit: "count", note: "no browser in this workload"},
		{name: "jsengine.steps_per_op", value: 0, unit: "count", note: "no script engine in this workload"},
		{name: "ffi.crossings_per_op", value: (t.crossings - f.crossings) / ops, unit: "count"},
		{name: "ffi.gate_ns", value: ratio(float64(t.gateSum-f.gateSum), float64(t.gateCount-f.gateCount)), unit: "ns",
			note: "mean of pkrusafe_gate_latency_ns"},
		{name: "vm.loads_per_op", value: (t.loads - f.loads) / ops, unit: "count"},
		{name: "vm.stores_per_op", value: (t.stores - f.stores) / ops, unit: "count"},
		{name: "vm.resident_pages", value: float64(w.m.Space().ResidentPages()), unit: "count", note: "at the end"},
		{name: "heap.allocs_per_op_mt", value: float64(t.allocsMT-f.allocsMT) / ops, unit: "count"},
		{name: "heap.allocs_per_op_mu", value: float64(t.allocsMUSince(f)) / ops, unit: "count", note: "MU and tenant pools"},
		{name: "vkey.miss_ratio", value: ratio(float64(t.vkey.SlotMisses-f.vkey.SlotMisses), float64(t.vkey.Activations-f.vkey.Activations)), unit: "ratio"},
		{name: "vkey.evictions_per_op", value: float64(t.vkey.Evictions-f.vkey.Evictions) / ops, unit: "count"},
		{name: "resilience.admit_ns", value: p(perRootSum(bufs, spAllow, spRecord), 0.5), unit: "ns", note: "p50 of Allow + Record*, traced"},
		{name: "gatetrace.request_ns", value: p(perRootSum(bufs, spTraceStart, spTraceBind, spTraceUnbind, spTraceFinish), 0.5), unit: "ns",
			note: "p50 of Start + Bind + Unbind + Finish, traced"},
		{name: "supervise.shield_self_ns", value: p(selfOf(bufs, spShield), 0.5), unit: "ns", note: "p50 of Shield minus Call, traced"},
		{name: "ffi.call_self_ns", value: p(callSelf, 0.5), unit: "ns", note: "p50 of Call minus the work body, traced"},
		{name: "ffi.call_self_p99_ns", value: p(callSelf, 0.99), unit: "ns", note: fmt.Sprintf("p99 of the same, from %d samples", len(callSelf))},
		{name: "vm.body_ns", value: p(durations(bufs, spBody), 0.5), unit: "ns", note: "p50 of the work body, traced"},
	}
}

// runtimeLayers derives the Go runtime rows and the tracing overhead.
func runtimeLayers(rt rtSnap, ops uint64, overhead float64) []metric {
	n := float64(ops)
	return []metric{
		{name: "runtime.allocs_per_op", value: float64(rt.allocs) / n, unit: "count"},
		{name: "runtime.mutex_wait_us_per_op", value: rt.mutexWait * 1e6 / n, unit: "us"},
		{name: "runtime.gc_cpu_share", value: ratio(rt.gcCPU, rt.totalCPU), unit: "ratio"},
		{name: "runtime.sched_wait_p99_us", value: float64(rt.schedP99()) / 1e3, unit: "us"},
		{name: "trace.overhead_ratio", value: overhead, unit: "ratio", note: "untraced / traced ops_per_s"},
	}
}
