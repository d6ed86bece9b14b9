// Command pkru-servo runs the browser simulator on an HTML page and a
// script under one of the paper's build configurations, optionally
// collecting or consuming a sharing profile:
//
//	pkru-servo -config profiling -html page.html -script app.js -profile-out app.prof
//	pkru-servo -config mpk -html page.html -script app.js -profile app.prof
//
// Without -html/-script a built-in demo page and script are used.
//
// -recover selects a compartment fault recovery policy (abort, the
// default, keeps fail-stop; retry, quarantine and heal make engine
// faults survivable) and -requests N executes the script N times as
// independent requests: a request whose script dies in the engine is
// dropped and reported, but the browser keeps serving the rest — the
// request-level isolation a real embedder wants from the supervisor.
//
// -metrics / -metrics-json export the run's telemetry in Prometheus text
// or JSON form ("-" = stdout); -listen serves the live observability
// endpoints (/metrics, /snapshot.json, /trace, /trace.json,
// /domains.json, /healthz, /debug/pprof, and — with -profile-store —
// /profile, /profile/diff, /profile/shadow) while the workload runs. If
// the script dies on an MPK violation the crash report is printed to
// stderr before exit 1.
//
// -domains N switches the binary into the multi-tenant domain workload
// (docs/domains.md) instead of the browser: N logical domains — far more
// than the 13 hardware key slots — are called into through ffi call
// gates by worker threads while tenants churn, exercising the
// virtual-key table's LRU eviction, slot recycling and eviction-time
// PKRU revocation. Every request runs under a request-scoped trace
// context (docs/tracing.md): gate enter/exit, faults, supervisor
// recovery actions and slot evictions correlate under one trace ID with
// the tenant's label. -inject-fault makes selected requests touch the
// trusted heap from inside their domain — a pkey fault the -recover
// policy then answers — so the retained traces show the full
// fault→recovery arc; "40" injects into every 40th request globally,
// "tenant3:0.2" into 20% of tenant3's requests (deterministically).
// The pkrusafe_vkey_* and gate-latency families are live on -listen's
// /metrics while the workload runs.
//
// -hostile=<tenant> turns one tenant of the -domains workload
// compromised: its requests run the internal/attack payload roster
// (trusted reads, rogue WRPKRUs, cross-tenant probes) through its own
// gates. Each tenant fronts a circuit breaker (docs/recovery.md): the
// hostile tenant's faults trip it, later requests are shed at admission
// with a typed refusal before touching any gate, and the supervisor
// quarantines only that tenant's pool (its epoch bumps; nobody else's).
// Healthy tenants' slots are pinned against eviction while the breaker
// is open. The run prints a "resilience:" verdict block and exits
// non-zero if containment failed. -churn=false freezes the tenant set
// for deterministic rehearsals; -breaker-probe-after overrides the
// open→half-open backoff; /tenants.json on -listen serves live
// breaker/epoch state.
//
// -latency-out writes a schema-versioned per-tenant latency report
// (p50/p95/p99 and throughput, the numbers behind BENCH_gatetrace.json);
// -trace-json writes the retained traces as Chrome trace_event JSON
// loadable in chrome://tracing or Perfetto.
//
// -profile-store closes the profiling loop (docs/profiling.md): the
// active generation of a generational profile store supplies the applied
// profile, the crossing sampler feeds live boundary observations back,
// and heal deltas are committed as a candidate generation. With
// -shadow-frac F > 0 the candidate is staged: the request workload is
// replayed with fraction F of requests on the candidate (shadow arm) and
// the rest on the active generation (control arm); the candidate is
// promoted only if the shadow arm's fault rate does not regress. The
// store file is rewritten at exit either way. -trace-out persists the
// trace ring — including crossing and profile-swap events — to a file.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/attack"
	"repro/internal/browser"
	"repro/internal/core"
	"repro/internal/domains"
	"repro/internal/ffi"
	"repro/internal/gatetrace"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/profstore"
	"repro/internal/resilience"
	"repro/internal/supervise"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workload"
)

const demoHTML = `
<body>
	<div id="app" class="demo">
		<h1 id="title">pkru-servo</h1>
		<ul id="items"><li>one</li><li>two</li></ul>
	</div>
</body>`

const demoScript = `
	var app = byId("app");
	var title = byId("title");
	print("title text: " + getText(title));
	for (var i = 0; i < 5; i++) {
		var li = createElement("li");
		appendChild(byId("items"), li);
		setText(li, "generated " + i);
	}
	reflow();
	print("items: " + childCount(byId("items")));
	childCount(byId("items"));
`

// traceCap sizes the runtime event ring backing /trace and crash reports.
const traceCap = 256

// retainedCap sizes the gatetrace retained-trace ring: enough flagged
// requests for a useful /trace.json timeline without unbounded memory.
const retainedCap = 256

func main() {
	cfgName := flag.String("config", "mpk", "base|alloc|mpk|profiling")
	htmlPath := flag.String("html", "", "HTML file to load (default: built-in demo)")
	scriptPath := flag.String("script", "", "script file to run (default: built-in demo)")
	profileIn := flag.String("profile", "", "profile JSON consumed by alloc/mpk builds")
	profileOut := flag.String("profile-out", "", "profile JSON written by a profiling build")
	metrics := flag.String("metrics", "", `write Prometheus metrics to this path ("-" = stdout)`)
	metricsJSON := flag.String("metrics-json", "", `write a JSON metrics snapshot to this path ("-" = stdout)`)
	listen := flag.String("listen", "", "serve /metrics, /snapshot.json, /trace, /trace.json, /domains.json, /healthz and /debug/pprof on this address while running")
	recoverName := flag.String("recover", "abort", "compartment fault recovery policy: abort|retry|quarantine|heal")
	requests := flag.Int("requests", 1, "execute the script this many times as independent requests")
	profileStore := flag.String("profile-store", "", "generational profile store JSON (created if missing); supplies the applied profile and absorbs heal deltas")
	shadowFrac := flag.Float64("shadow-frac", 0, "stage committed candidate generations on this fraction of replayed requests before promoting")
	traceOut := flag.String("trace-out", "", `write the trace ring to this path at exit ("-" = stdout)`)
	traceJSON := flag.String("trace-json", "", `write retained request traces as Chrome trace_event JSON to this path at exit ("-" = stdout)`)
	latencyOut := flag.String("latency-out", "", `write a schema-versioned per-tenant latency/throughput report to this path ("-" = stdout)`)
	tailThreshold := flag.Duration("trace-tail", 0, "additionally retain clean request traces at least this slow (0 = flagged traces only)")
	injectFault := flag.String("inject-fault", "", `-domains only: inject compartment faults ("40" = every 40th request; "tenant3:0.2" = 20% of tenant3's requests; "tenant3:5" = every 5th of tenant3's)`)
	sampleInterval := flag.Int("sample-interval", 8, "crossing-sampler interval for the -domains workload")
	nDomains := flag.Int("domains", 0, "run the multi-tenant domain workload with this many logical domains instead of the browser")
	domainWorkers := flag.Int("domain-workers", 4, "concurrent worker threads for the -domains workload")
	domainCycles := flag.Int("domain-cycles", 2000, "domain entries per worker for the -domains workload")
	hostile := flag.String("hostile", "", "-domains only: this tenant runs the attack payload roster instead of honest work; prints a resilience verdict and exits non-zero on a containment breach")
	churn := flag.Bool("churn", true, "-domains only: rotate tenants out and back in while the workload runs (disable for deterministic rehearsals)")
	probeAfter := flag.Duration("breaker-probe-after", 0, "-domains only: base open→half-open breaker backoff (0 = the resilience default)")
	flag.Parse()

	faultSpec, err := workload.ParseFaultSpec(*injectFault)
	exitOn(err)

	if *nDomains > 0 {
		runDomains(domainRunConfig{
			n:              *nDomains,
			workers:        *domainWorkers,
			cycles:         *domainCycles,
			listen:         *listen,
			metrics:        *metrics,
			metricsJSON:    *metricsJSON,
			recoverName:    *recoverName,
			latencyOut:     *latencyOut,
			traceJSON:      *traceJSON,
			traceOut:       *traceOut,
			tailThreshold:  *tailThreshold,
			fault:          faultSpec,
			sampleInterval: *sampleInterval,
			hostile:        *hostile,
			churn:          *churn,
			probeAfter:     *probeAfter,
		})
		return
	}
	if *hostile != "" {
		fmt.Fprintln(os.Stderr, "pkru-servo: -hostile needs the -domains workload")
		os.Exit(2)
	}

	policy, err := supervise.ParsePolicy(*recoverName)
	exitOn(err)

	html, script := demoHTML, demoScript
	if *htmlPath != "" {
		data, err := os.ReadFile(*htmlPath)
		exitOn(err)
		html = string(data)
	}
	if *scriptPath != "" {
		data, err := os.ReadFile(*scriptPath)
		exitOn(err)
		script = string(data)
	}

	var cfg core.BuildConfig
	switch *cfgName {
	case "base":
		cfg = core.Base
	case "alloc":
		cfg = core.Alloc
	case "mpk":
		cfg = core.MPK
	case "profiling":
		cfg = core.Profiling
	default:
		fmt.Fprintf(os.Stderr, "pkru-servo: unknown config %q\n", *cfgName)
		os.Exit(2)
	}

	var store *profstore.Store
	if *profileStore != "" {
		if *profileIn != "" {
			fmt.Fprintln(os.Stderr, "pkru-servo: -profile and -profile-store are mutually exclusive")
			os.Exit(2)
		}
		if cfg != core.Alloc && cfg != core.MPK {
			fmt.Fprintf(os.Stderr, "pkru-servo: -profile-store needs -config alloc or mpk (got %v)\n", cfg)
			os.Exit(2)
		}
		store, err = profstore.LoadFileOrNew(*profileStore)
		exitOn(err)
	}

	var prof *profile.Profile
	if store != nil {
		// The store's active generation is the applied profile; a fresh
		// store starts from the empty seed and heals its way forward.
		prof = store.Active().Sites
		fmt.Fprintf(os.Stderr, "pkru-servo: profile store %s: applying generation %d (%d site(s))\n",
			*profileStore, store.ActiveSeq(), prof.Len())
	} else if cfg == core.Alloc || cfg == core.MPK {
		prof = profile.New()
		if *profileIn != "" {
			data, err := os.ReadFile(*profileIn)
			exitOn(err)
			exitOn(json.Unmarshal(data, prof))
		} else if cfg == core.MPK {
			// No profile given: collect one from this very workload, the
			// way a developer would before shipping the enforced build.
			fmt.Fprintln(os.Stderr, "pkru-servo: no -profile; collecting one from this workload first")
			p, err := browser.CollectProfile(func(b *browser.Browser) error {
				if err := b.LoadHTML(html); err != nil {
					return err
				}
				_, err := b.ExecScript(script)
				return err
			}, browser.Options{ScriptOutput: os.Stderr})
			exitOn(err)
			prof = p
		}
	}

	opts := browser.Options{
		ScriptOutput: os.Stdout,
		Trace:        trace.NewRing(traceCap),
		Forensics:    true,
		Supervision:  supervise.Config{Policy: policy},
		Crossings:    store != nil,
	}
	var reg *telemetry.Registry
	if *metrics != "" || *metricsJSON != "" || *listen != "" || store != nil ||
		*latencyOut != "" || *traceJSON != "" {
		reg = telemetry.NewRegistry()
		opts.Telemetry = reg
	}
	// The request tracer rides whenever some consumer of its output is
	// configured. Browser requests all carry the same tenant label: the
	// embedder is single-tenant, but the traces still correlate gate spans
	// with supervisor recovery per request.
	var tracer *gatetrace.Tracer
	if *listen != "" || *latencyOut != "" || *traceJSON != "" {
		tracer = gatetrace.New(gatetrace.Config{
			Registry: reg, Capacity: retainedCap, TailThreshold: *tailThreshold})
		opts.Tracing = tracer
	}
	var rollout *profstore.Rollout
	if store != nil {
		store.SetTrace(opts.Trace)
		store.SetTelemetry(reg)
		rollout = profstore.NewRollout(store, *shadowFrac, reg)
	}

	b, err := browser.New(cfg, prof, opts)
	exitOn(err)

	var srv *obs.Server
	if *listen != "" {
		srv, err = obs.ListenAndServe(*listen, obs.ServerConfig{
			Registry: reg, Ring: opts.Trace, Profiles: store, Rollout: rollout, Traces: tracer})
		exitOn(err)
		fmt.Fprintf(os.Stderr, "pkru-servo: observability server on %s\n", srv.URL())
	}

	crashOn := func(err error) {
		if err == nil {
			return
		}
		fmt.Fprintln(os.Stderr, "pkru-servo:", err)
		if rep, ok := b.Prog.Forensics().Capture(err); ok {
			_ = rep.WriteText(os.Stderr)
		}
		closeServer(srv)
		os.Exit(1)
	}
	crashOn(b.LoadHTML(html))

	// The request loop: each script execution is one supervised request
	// under its own trace context. A request the supervisor could not save
	// is dropped — logged with its typed compartment error — without
	// taking the service down; any other error is a genuine crash.
	lr := newLatencyRecorder()
	served, dropped := 0, 0
	loopStart := time.Now()
	for i := 1; i <= *requests; i++ {
		tc := tracer.Start("servo")
		b.Prog.Main().SetTraceContext(tc)
		reqStart := time.Now()
		result, err := b.ExecScript(script)
		reqLat := time.Since(reqStart)
		b.Prog.Main().SetTraceContext(nil)
		tc.Finish()
		var cerr *supervise.CompartmentError
		if errors.As(err, &cerr) {
			dropped++
			fmt.Fprintf(os.Stderr, "pkru-servo: request %d/%d dropped (%s): %v\n", i, *requests, cerr.Outcome, cerr.Err)
			continue
		}
		crashOn(err)
		served++
		lr.record("servo", reqLat)
		fmt.Printf("script result: %g\n", result)
	}
	elapsed := time.Since(loopStart)
	if dropped > 0 {
		fmt.Fprintf(os.Stderr, "pkru-servo: crash averted: served %d/%d request(s), dropped %d under policy %s\n",
			served, *requests, dropped, policy)
	}

	if store != nil {
		runProfilePlane(b, store, rollout, cfg, *shadowFrac, *requests, html, script, policy, reg)
		exitOn(store.SaveFile(*profileStore))
		fmt.Fprintf(os.Stderr, "pkru-servo: profile store saved to %s (%d generation(s), active %d)\n",
			*profileStore, store.Len(), store.ActiveSeq())
	}

	st := b.Stats()
	fmt.Printf("config=%v transitions=%d dom-ops=%d sites=%d shared-sites=%d %%MU=%.2f%%\n",
		cfg, st.Transitions, st.DOMOps, st.TotalSites, st.UntrustedSites, 100*st.UntrustedShare)

	if reg != nil {
		if *metrics != "" {
			writeTo(*metrics, reg.WritePrometheus)
		}
		if *metricsJSON != "" {
			writeTo(*metricsJSON, reg.Snapshot().WriteJSON)
		}
	}
	if *latencyOut != "" {
		writeLatencyReport(*latencyOut, latencyReport{
			Schema: benchSchema, Experiment: "gatetrace", Mode: "browser",
			Policy: policy.String(), Requests: served + dropped, Dropped: dropped,
		}, lr, elapsed)
	}
	if *traceJSON != "" {
		writeTo(*traceJSON, tracer.WriteChromeTrace)
	}

	if cfg == core.Profiling && *profileOut != "" {
		p, err := b.Prog.RecordedProfile()
		exitOn(err)
		data, err := json.MarshalIndent(p, "", "  ")
		exitOn(err)
		exitOn(os.WriteFile(*profileOut, data, 0o644))
		fmt.Printf("profile with %d shared sites written to %s\n", p.Len(), *profileOut)
	}
	if *traceOut != "" {
		writeTo(*traceOut, func(w io.Writer) error { opts.Trace.Dump(w); return nil })
	}
	closeServer(srv)
}

// domainRunConfig carries the flag subset the -domains workload consumes.
type domainRunConfig struct {
	n, workers, cycles int
	listen             string
	metrics            string
	metricsJSON        string
	recoverName        string
	latencyOut         string
	traceJSON          string
	traceOut           string
	tailThreshold      time.Duration
	fault              workload.FaultSpec
	sampleInterval     int
	hostile            string
	churn              bool
	probeAfter         time.Duration
}

// tenantsView is the /tenants.json payload: per-tenant breaker state
// beside per-pool quarantine epochs, the two halves of the resilience
// story an operator wants on one page.
type tenantsView struct {
	Breakers []resilience.TenantState `json:"breakers"`
	Epochs   map[string]uint64        `json:"epochs"`
}

// runDomains drives the multi-tenant domain workload: n logical domains
// multiplexed onto the hardware key slots, each fronted by an untrusted
// ffi library bound to the tenant's compartment, called concurrently by
// worker threads while a churn loop removes and re-adds tenants
// underneath them. Every request crosses a domain call gate — the
// audited activate-and-install path — under a request-scoped trace
// context, so gate latency, faults, recovery actions and the evictions a
// request triggers all land on one per-tenant trace. Cross-tenant probes
// must deny; churn must recycle both key slots and pool regions. The
// virtual-key telemetry, the per-library gate-latency histograms and
// /trace.json + /domains.json are live on -listen for the duration.
func runDomains(o domainRunConfig) {
	if o.workers < 1 {
		o.workers = 1
	}
	policy, err := supervise.ParsePolicy(o.recoverName)
	exitOn(err)
	space := vm.NewSpace()
	m, err := domains.NewManager(space)
	exitOn(err)

	reg := telemetry.NewRegistry()
	m.SetTelemetry(reg)
	ring := trace.NewRing(traceCap)
	tracer := gatetrace.New(gatetrace.Config{
		Registry: reg, Capacity: retainedCap, TailThreshold: o.tailThreshold})
	m.SetTracing(tracer)

	entries := reg.Counter("pkruservo_domain_entries_total", "Domain requests completed by the tenant workload.")
	reads := reg.Counter("pkruservo_domain_reads_total", "In-domain reads of the tenant's own pool that succeeded.")
	denied := reg.Counter("pkruservo_domain_denied_total", "Cross-tenant probes correctly denied by the hardware keys.")
	leaks := reg.Counter("pkruservo_domain_leaks_total", "Cross-tenant probes that wrongly succeeded (must stay 0).")
	churned := reg.Counter("pkruservo_domain_churn_total", "Tenants removed and re-added while the workload ran.")
	droppedReqs := reg.Counter("pkruservo_domain_dropped_total", "Requests the recovery policy could not save.")
	refused := reg.Counter("pkruservo_domain_refused_total", "Requests refused at the gate because churn freed the tenant's key mid-flight.")
	shedReqs := reg.Counter("pkruservo_domain_shed_total", "Requests shed at admission by an open tenant breaker, never gated.")
	breaches := reg.Counter("pkruservo_hostile_breach_total", "Hostile payloads that reached their goal (must stay 0).")

	// The ffi runtime over the manager's allocator: tenant libraries are
	// untrusted and domain-bound, so every call into one gates through the
	// vkey table with the tenant's rights.
	ffiReg := ffi.NewRegistry()
	rt := ffi.NewRuntime(ffiReg, m.Allocator(), nil, ffi.GatesOn)
	rt.SetTelemetry(reg)
	rt.SetTrace(ring)
	sampler := profstore.NewSampler(profstore.SamplerConfig{
		Interval: o.sampleInterval, Telemetry: reg, Ring: ring})
	rt.SetCrossingSink(sampler)
	sup := supervise.New(supervise.Config{Policy: policy},
		supervise.Deps{Alloc: m.Allocator(), Ring: ring, Telemetry: reg})

	// The admission-control tier: one circuit breaker per tenant, between
	// the request loop and the gates. A tenant whose compartment keeps
	// faulting is shed here — typed refusal, no gate entry, no recovery
	// budget spent — while every other tenant keeps its throughput.
	breakers := resilience.NewGroup(resilience.Config{ProbeAfter: o.probeAfter})
	breakers.SetTelemetry(reg)

	var srv *obs.Server
	if o.listen != "" {
		srv, err = obs.ListenAndServe(o.listen, obs.ServerConfig{
			Registry: reg, Ring: ring, Traces: tracer,
			Domains: func() any { return m.Occupancy() },
			Tenants: func() any {
				return tenantsView{Breakers: breakers.Snapshot(), Epochs: m.Allocator().DomainEpochs()}
			}})
		exitOn(err)
		fmt.Fprintf(os.Stderr, "pkru-servo: observability server on %s\n", srv.URL())
	}

	// A trusted secret the fault injector touches from inside a domain:
	// the pkey fault every Nth request deliberately takes, for the
	// supervisor to answer and the trace to retain.
	setup := vm.NewThread(space, nil) // trusted: PermitAll
	secret, err := m.AllocTrusted(64)
	exitOn(err)
	exitOn(setup.Store64(secret, 0xfeed))

	// Tenant table: each tenant's current buffer address, swapped atomically
	// under its lock when churn recreates the pool. Workers racing a churn
	// see either address; a stale one simply faults (a denied probe), which
	// is the safe outcome.
	name := func(i int) string { return fmt.Sprintf("tenant%03d", i) }
	type tenant struct {
		mu  sync.Mutex
		buf vm.Addr
	}
	tenants := make([]*tenant, o.n)
	// work is every tenant library's single entry point. It runs with the
	// tenant's domain rights: its own pool readable, every other tenant's
	// pool and the trusted heap denied. args: own buffer, probe address,
	// secret address, inject flag.
	work := func(t *ffi.Thread, args []uint64) ([]uint64, error) {
		own, probe, secretAddr, inject := args[0], args[1], args[2], args[3]
		v, err := t.Load64(vm.Addr(own))
		if err == nil {
			reads.Inc()
		}
		if probe != own {
			if _, perr := t.Load64(vm.Addr(probe)); perr != nil {
				denied.Inc()
			} else {
				leaks.Inc()
			}
		}
		if inject != 0 {
			// Deliberate compartment failure: trusted memory from inside
			// the domain. The fault propagates out through the gate (which
			// self-unwinds) to the supervisor's recovery point.
			if _, ferr := t.Load64(vm.Addr(secretAddr)); ferr != nil {
				return nil, ferr
			}
		}
		return []uint64{v}, err
	}
	// hostileWork is the entry point a compromised tenant's library runs:
	// one attack payload per request, rotated deterministically by the
	// tenant-local sequence number. Every payload must die with a PKUERR
	// inside the tenant's own compartment; one that reaches its goal is an
	// isolation breach. args: payload index, secret address, victim address.
	payloads := attack.TenantPayloads()
	hostileWork := func(t *ffi.Thread, args []uint64) ([]uint64, error) {
		idx, secretAddr, victim := args[0], args[1], args[2]
		p := payloads[idx%uint64(len(payloads))]
		breached, err := p.Run(t, attack.PayloadTargets{
			Secret: vm.Addr(secretAddr), Victim: vm.Addr(victim)})
		if err != nil {
			return nil, err
		}
		if breached {
			breaches.Inc()
			fmt.Fprintf(os.Stderr, "pkru-servo: HOSTILE BREACH: payload %s (%s) reached its goal\n", p.Name, p.Class)
		}
		return []uint64{0}, nil
	}
	addTenant := func(i int) error {
		d, err := m.AddDomain(name(i))
		if err != nil {
			return err
		}
		buf, err := m.Alloc(d, 64)
		if err != nil {
			return err
		}
		if err := setup.Store64(buf, uint64(i)); err != nil {
			return err
		}
		lib, err := ffiReg.Library(name(i), ffi.Untrusted)
		if err != nil {
			return err
		}
		lib.Define("work", work)
		lib.Define("hostile", hostileWork)
		m.BindLibrary(rt, name(i), d)
		tenants[i].mu.Lock()
		tenants[i].buf = buf
		tenants[i].mu.Unlock()
		return nil
	}
	bufOf := func(i int) vm.Addr {
		tenants[i].mu.Lock()
		defer tenants[i].mu.Unlock()
		return tenants[i].buf
	}
	for i := 0; i < o.n; i++ {
		tenants[i] = &tenant{}
		exitOn(addTenant(i))
	}

	lr := newLatencyRecorder()
	var reqSeq atomic.Uint64
	perSeq := make([]atomic.Uint64, o.n) // tenant-local request sequence
	okBy := make([]atomic.Uint64, o.n)   // per-tenant successes, for the verdict
	dropBy := make([]atomic.Uint64, o.n) // per-tenant drops, for the verdict

	// setPins pins (or unpins) every tenant's slot except the flapping
	// one: while a breaker is open or half-open probing, the healthy,
	// latency-critical tenants keep their hardware slots instead of losing
	// them to the probe traffic's activations. Best-effort — a tenant
	// churned away mid-loop just skips.
	setPins := func(except string, on bool) {
		for j := 0; j < o.n; j++ {
			if name(j) == except {
				continue
			}
			if on {
				_ = m.Pin(name(j))
			} else {
				_ = m.Unpin(name(j))
			}
		}
	}
	// mark publishes a breaker transition: a gatetrace instant on the
	// request's trace (flagging it for retention) and the pinning
	// side-effect — open pins the healthy tenants, closed releases them.
	mark := func(tc *gatetrace.Context, tenant string, tr *resilience.Transition) {
		if tr == nil {
			return
		}
		tc.MarkBreaker(tr.To.String(), tenant, tr.Reason)
		switch tr.To {
		case resilience.Open:
			setPins(tenant, true)
		case resilience.Closed:
			setPins(tenant, false)
		}
	}

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < o.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := rt.NewThread()
			if o.hostile != "" {
				// The payload roster includes rogue WRPKRUs; arm the
				// per-thread guard so the defense under test is on.
				th.VM.SetPKRUGuard(true)
			}
			for c := 0; c < o.cycles; c++ {
				i := (w + c) % o.n
				tenantName := name(i)
				if _, ok := m.Domain(tenantName); !ok {
					continue // churned away between pick and lookup
				}
				seq := reqSeq.Add(1)
				tseq := int(perSeq[i].Add(1))
				injSeq := int(seq)
				if o.fault.Tenant != "" {
					injSeq = tseq // tenant-scoped spec counts the tenant's own stream
				}
				inject := o.fault.Hits(tenantName, injSeq)
				// One request: its own trace context, attached to the
				// thread for gate spans and bound to the rights register
				// for eviction attribution.
				tc := tracer.Start(tenantName)
				// Admission: an open breaker sheds the request here —
				// counted, typed, never gated, no latency sample.
				tr, aerr := breakers.Allow(tenantName)
				if aerr != nil {
					shedReqs.Inc()
					tc.Finish()
					continue
				}
				mark(tc, tenantName, tr)
				th.SetTraceContext(tc)
				tracer.Bind(th.VM, tc)
				qBefore := sup.DomainQuarantines(tenantName)
				reqStart := time.Now()
				var err error
				if o.hostile == tenantName {
					err = sup.Shield(th, tenantName+".hostile", func() error {
						_, herr := th.Call(tenantName, "hostile",
							uint64(tseq-1), uint64(secret), uint64(bufOf((i+1)%o.n)))
						return herr
					})
				} else {
					err = sup.Shield(th, tenantName+".work", func() error {
						inj := uint64(0)
						if inject {
							inj, inject = 1, false // fault once; the retry succeeds
						}
						_, werr := th.Call(tenantName, "work",
							uint64(bufOf(i)), uint64(bufOf((i+1)%o.n)), uint64(secret), inj)
						return werr
					})
				}
				reqLat := time.Since(reqStart)
				tracer.Unbind(th.VM)
				th.SetTraceContext(nil)
				// Recovery actions the supervisor spent on this tenant burn
				// its breaker budget, opening it even when the request was
				// ultimately saved.
				if burned := sup.DomainQuarantines(tenantName) - qBefore; burned > 0 {
					mark(tc, tenantName, breakers.RecordBurn(tenantName, burned))
				}
				var cerr *supervise.CompartmentError
				var fault *vm.Fault
				switch {
				case err == nil:
					entries.Inc()
					okBy[i].Add(1)
					lr.record(tenantName, reqLat)
					mark(tc, tenantName, breakers.RecordSuccess(tenantName))
				case errors.As(err, &cerr), errors.As(err, &fault):
					// The policy gave the request up (or, under abort, the
					// injected fault surfaced raw). Dropped, not fatal.
					droppedReqs.Inc()
					dropBy[i].Add(1)
					mark(tc, tenantName, breakers.RecordFault(tenantName))
				default:
					// Churn freed the tenant's key between lookup and gate
					// entry; the gate failed closed without running the body.
					// Not the tenant's fault: the breaker does not charge it.
					refused.Inc()
				}
				tc.Finish()
			}
		}(w)
	}

	// Churn loop: while the workers run, rotate tenants out and back in so
	// key recycling and pool scrubbing happen under live concurrent entry.
	// -churn=false skips it for deterministic rehearsals (the golden
	// resilience transcript depends on a fixed request schedule).
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	victim := 0
churn:
	for o.churn {
		select {
		case <-done:
			break churn
		case <-time.After(50 * time.Microsecond):
		}
		i := victim % o.n
		victim++
		// Touch the victim first so it holds a hardware slot when removed:
		// removal of an active tenant is the interesting case, exercising
		// slot recycling and bound-thread revocation rather than just
		// discarding a parked key.
		if d, ok := m.Domain(name(i)); ok {
			if restore, err := m.Enter(setup, d); err == nil {
				_ = restore()
			}
		}
		if err := m.RemoveDomain(name(i)); err != nil {
			continue
		}
		if err := addTenant(i); err != nil {
			fmt.Fprintf(os.Stderr, "pkru-servo: tenant re-add: %v\n", err)
			os.Exit(1)
		}
		churned.Inc()
	}
	<-done
	elapsed := time.Since(start)

	st := m.Table().Stats()
	ts := tracer.Stats()
	if leaks.Value() > 0 {
		fmt.Fprintf(os.Stderr, "pkru-servo: ISOLATION FAILURE: %d cross-tenant probe(s) succeeded\n", leaks.Value())
	}
	fmt.Printf("domains=%d slots=%d workers=%d requests=%d reads=%d denied-probes=%d leaks=%d dropped=%d refused=%d shed=%d churn=%d elapsed=%v\n",
		o.n, st.Slots, o.workers, entries.Value(), reads.Value(), denied.Value(), leaks.Value(),
		droppedReqs.Value(), refused.Value(), shedReqs.Value(), churned.Value(), elapsed.Round(time.Millisecond))
	fmt.Printf("vkeys: logical=%d active=%d parked=%d activations=%d slot-misses=%d evictions=%d recycled=%d invalidations=%d\n",
		st.Logical, st.Active, st.Parked, st.Activations, st.SlotMisses, st.Evictions, st.Recycled, st.Invalidations)
	fmt.Printf("traces: started=%d finished=%d retained=%d dropped=%d sampler-interval=%d\n",
		ts.Started, ts.Finished, ts.Retained, ts.Dropped, sampler.Interval())

	// The containment verdict: with a hostile tenant in play, prove the
	// blast radius stayed inside that tenant. Its breaker must have
	// tripped, only its pool's epoch may have bumped (under a quarantining
	// policy), and every healthy tenant must have kept a 100% success
	// rate. A breach exits non-zero — CI runs this as a gate.
	contained := true
	if o.hostile != "" {
		hi := -1
		for j := 0; j < o.n; j++ {
			if name(j) == o.hostile {
				hi = j
				break
			}
		}
		if hi < 0 {
			fmt.Fprintf(os.Stderr, "pkru-servo: -hostile %s names no tenant (have tenant000..%s)\n", o.hostile, name(o.n-1))
			os.Exit(2)
		}
		// Epoch accounting comes from the supervisor's per-domain
		// quarantine counters, not the pools' live epochs: the churn loop
		// recycles pools (resetting their epoch to zero), which would
		// erase a quarantine history the verdict needs — cumulatively for
		// the hostile tenant, and at all for a healthy one.
		healthyN, healthyBumped, healthyOK, healthyDropped := 0, 0, uint64(0), uint64(0)
		for j := 0; j < o.n; j++ {
			if j == hi || name(j) == o.fault.Tenant {
				// The hostile tenant and a deliberately fault-injected
				// tenant are not "healthy": their drops and epoch bumps
				// are the experiment, not collateral damage.
				continue
			}
			healthyN++
			if sup.DomainQuarantines(name(j)) > 0 {
				healthyBumped++
			}
			healthyOK += okBy[j].Load()
			healthyDropped += dropBy[j].Load()
		}
		var trips uint64
		for _, tsn := range breakers.Snapshot() {
			if tsn.Tenant == o.hostile {
				trips = tsn.Trips
			}
		}
		bstate := breakers.State(o.hostile)
		fmt.Printf("resilience: hostile=%s requests=%d faulted=%d shed=%d breaker=%s trips=%d\n",
			o.hostile, perSeq[hi].Load(), dropBy[hi].Load(), breakers.Shed(o.hostile), bstate, trips)
		hostileEpochs := sup.DomainQuarantines(o.hostile)
		fmt.Printf("resilience: hostile-epochs=%d healthy-pools-bumped=%d\n",
			hostileEpochs, healthyBumped)
		fmt.Printf("resilience: healthy tenants=%d ok=%d dropped=%d leaks=%d breaches=%d\n",
			healthyN, healthyOK, healthyDropped, leaks.Value(), breaches.Value())
		// Abort and retry never quarantine, so only the quarantining
		// policies owe an epoch bump for containment.
		wantEpochs := policy == supervise.Quarantine || policy == supervise.Heal
		contained = bstate != resilience.Closed &&
			(!wantEpochs || hostileEpochs > 0) &&
			healthyBumped == 0 && healthyDropped == 0 &&
			leaks.Value() == 0 && breaches.Value() == 0
		verdict := "CONTAINED"
		if !contained {
			verdict = "BREACH"
		}
		fmt.Printf("resilience: verdict %s\n", verdict)
	}

	if o.latencyOut != "" {
		writeLatencyReport(o.latencyOut, latencyReport{
			Schema: benchSchema, Experiment: "gatetrace", Mode: "domains",
			Policy: policy.String(), Domains: o.n, Workers: o.workers,
			Requests: int(entries.Value() + droppedReqs.Value()),
			Dropped:  int(droppedReqs.Value()),
			Shed:     int(shedReqs.Value()),
		}, lr, elapsed)
	}
	if o.traceJSON != "" {
		writeTo(o.traceJSON, tracer.WriteChromeTrace)
	}
	if o.traceOut != "" {
		writeTo(o.traceOut, func(w io.Writer) error { ring.Dump(w); return nil })
	}
	if o.metrics != "" {
		writeTo(o.metrics, reg.WritePrometheus)
	}
	if o.metricsJSON != "" {
		writeTo(o.metricsJSON, reg.Snapshot().WriteJSON)
	}
	closeServer(srv)
	if leaks.Value() > 0 || !contained {
		os.Exit(1)
	}
}

// benchSchema versions the -latency-out report, like the other BENCH_*
// seeds in the repo root.
const benchSchema = 1

// latencyRecorder accumulates per-tenant request latencies for the
// -latency-out report. Exact samples rather than histogram buckets: the
// report is written once at exit, so there is no reason to pay the log2
// buckets' quantization in an offline artifact.
type latencyRecorder struct {
	mu       sync.Mutex
	byTenant map[string][]time.Duration
}

func newLatencyRecorder() *latencyRecorder {
	return &latencyRecorder{byTenant: make(map[string][]time.Duration)}
}

func (lr *latencyRecorder) record(tenant string, d time.Duration) {
	lr.mu.Lock()
	lr.byTenant[tenant] = append(lr.byTenant[tenant], d)
	lr.mu.Unlock()
}

// tenantLatency is one tenant's row in the latency report.
type tenantLatency struct {
	Tenant        string  `json:"tenant"`
	Requests      int     `json:"requests"`
	P50Ns         int64   `json:"p50_ns"`
	P95Ns         int64   `json:"p95_ns"`
	P99Ns         int64   `json:"p99_ns"`
	ThroughputRPS float64 `json:"throughput_rps"`
}

// latencyReport is the -latency-out payload (see BENCH_gatetrace.json).
type latencyReport struct {
	Schema        int             `json:"schema"`
	Experiment    string          `json:"experiment"`
	Mode          string          `json:"mode"`
	Policy        string          `json:"policy"`
	Domains       int             `json:"domains,omitempty"`
	Workers       int             `json:"workers,omitempty"`
	Requests      int             `json:"requests"`
	Dropped       int             `json:"dropped"`
	Shed          int             `json:"shed,omitempty"`
	ElapsedS      float64         `json:"elapsed_s"`
	ThroughputRPS float64         `json:"throughput_rps"`
	Tenants       []tenantLatency `json:"tenants"`
}

// writeLatencyReport fills the per-tenant rows from the recorder and
// writes the schema-versioned JSON.
func writeLatencyReport(path string, rep latencyReport, lr *latencyRecorder, elapsed time.Duration) {
	rep.ElapsedS = elapsed.Seconds()
	if rep.ElapsedS > 0 {
		rep.ThroughputRPS = float64(rep.Requests) / rep.ElapsedS
	}
	lr.mu.Lock()
	tenants := make([]string, 0, len(lr.byTenant))
	for t := range lr.byTenant {
		tenants = append(tenants, t)
	}
	sort.Strings(tenants)
	rep.Tenants = make([]tenantLatency, 0, len(tenants))
	for _, t := range tenants {
		samples := lr.byTenant[t]
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		row := tenantLatency{
			Tenant:   t,
			Requests: len(samples),
			P50Ns:    telemetry.SampleQuantile(samples, 0.50).Nanoseconds(),
			P95Ns:    telemetry.SampleQuantile(samples, 0.95).Nanoseconds(),
			P99Ns:    telemetry.SampleQuantile(samples, 0.99).Nanoseconds(),
		}
		if rep.ElapsedS > 0 {
			row.ThroughputRPS = float64(len(samples)) / rep.ElapsedS
		}
		rep.Tenants = append(rep.Tenants, row)
	}
	lr.mu.Unlock()
	writeTo(path, func(w io.Writer) error {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		_, err = w.Write(append(data, '\n'))
		return err
	})
	fmt.Fprintf(os.Stderr, "pkru-servo: latency report (%d tenant(s)) written to %s\n", len(rep.Tenants), path)
}

// runProfilePlane closes the profiling loop after the serving phase: live
// crossing observations feed re-tighten bookkeeping, the heal delta (if
// any) is committed as a candidate generation, and — with a shadow
// fraction — the candidate is staged by replaying the request workload
// across a control browser (active generation) and a shadow browser
// (candidate), promoting only if the shadow arm's fault rate does not
// regress past control's.
func runProfilePlane(b *browser.Browser, store *profstore.Store, rollout *profstore.Rollout,
	cfg core.BuildConfig, frac float64, requests int, html, script string,
	policy supervise.Policy, reg *telemetry.Registry) {

	if cs := b.Prog.Crossings(); cs.Sampled() > 0 {
		cs.FeedStore(store)
		fmt.Fprintf(os.Stderr, "pkru-servo: crossings: %d sampled, %d allocation site(s) attributed\n",
			cs.Sampled(), len(cs.Sites()))
	}
	delta := b.Prog.Supervisor().Delta()
	if delta.Len() == 0 {
		fmt.Fprintf(os.Stderr, "pkru-servo: profile store: no heal delta; generation %d stands\n", store.ActiveSeq())
		return
	}
	cand := store.Commit(delta, "heal")
	fmt.Fprintf(os.Stderr, "pkru-servo: profile store: committed candidate generation %d (source heal, %d site(s))\n",
		cand.Seq, cand.Sites.Len())
	if frac <= 0 {
		fmt.Fprintf(os.Stderr, "pkru-servo: profile store: -shadow-frac 0; candidate %d held for offline promotion\n", cand.Seq)
		return
	}

	// Staged comparison: fresh browsers per arm so the control arm really
	// runs the pre-heal active generation (the serving browser has already
	// healed itself and would mask the regression being tested for).
	rollout.SetCandidate(cand.Seq)
	newArm := func(p *profile.Profile) *browser.Browser {
		ab, err := browser.New(cfg, p, browser.Options{
			ScriptOutput: io.Discard,
			Forensics:    true,
			Supervision:  supervise.Config{Policy: policy},
			Telemetry:    reg,
		})
		exitOn(err)
		exitOn(ab.LoadHTML(html))
		return ab
	}
	arms := map[string]*browser.Browser{
		profstore.ArmControl: newArm(store.Active().Sites),
		profstore.ArmShadow:  newArm(cand.Sites),
	}
	for i := 0; i < requests; i++ {
		arm := rollout.Assign()
		ab := arms[arm]
		before := len(ab.Prog.Supervisor().Events())
		_, err := ab.ExecScript(script)
		fault := false
		var cerr *supervise.CompartmentError
		if errors.As(err, &cerr) {
			fault = true
		} else {
			exitOn(err)
		}
		if len(ab.Prog.Supervisor().Events()) > before {
			fault = true
		}
		rollout.Record(arm, fault)
	}
	dec, err := rollout.Decide()
	exitOn(err)
	verdict := "rolled back"
	if dec.Promote {
		verdict = "promoted"
	}
	fmt.Fprintf(os.Stderr, "pkru-servo: profile rollout: candidate %d %s: %s (control %d/%d faulted, shadow %d/%d)\n",
		dec.Candidate, verdict, dec.Reason,
		dec.Control.Faults, dec.Control.Requests, dec.Shadow.Faults, dec.Shadow.Requests)
}

// writeTo writes via f to path, with "-" meaning stdout. File output is
// buffered so a failed export never leaves a truncated file behind.
func writeTo(path string, f func(io.Writer) error) {
	if path == "-" {
		exitOn(f(os.Stdout))
		return
	}
	var buf bytes.Buffer
	exitOn(f(&buf))
	exitOn(os.WriteFile(path, buf.Bytes(), 0o644))
}

// closeServer drains the observability server before exit (nil-safe).
func closeServer(srv *obs.Server) {
	if err := srv.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "pkru-servo: observability server:", err)
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "pkru-servo:", err)
		os.Exit(1)
	}
}
