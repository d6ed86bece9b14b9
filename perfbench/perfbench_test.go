package main

import (
	"encoding/json"
	"flag"
	"math"
	"math/rand"
	"os"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
)

var update = flag.Bool("update", false, "rewrite golden.json from the program's current results")

// TestGolden checks golden.json against a fresh run of every script:
// the warm-up result and two later calls, which must agree.
//
//	go test -run TestGolden -update   # re-record
func TestGolden(t *testing.T) {
	got := map[string]golden{}
	for _, s := range []browserSuite{domSuite(), computeSuite()} {
		gold := map[string]golden{}
		for _, b := range s.benches {
			gold[b.Name] = golden{N: s.arg(b)}
		}
		w, err := buildBrowserWorld(s, core.MPK, nil, gold, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, pg := range w.pages {
			var vals [2]float64
			for i := range vals {
				if vals[i], err = pg.br.InvokeScriptFunc(pg.fn, pg.arg); err != nil {
					t.Fatalf("%s: %v", pg.bench.Name, err)
				}
				if err := pg.br.Housekeeping(); err != nil {
					t.Fatal(err)
				}
			}
			if vals[0] != vals[1] {
				t.Fatalf("%s: bench(%g) is not steady after warm-up: %v then %v", pg.bench.Name, pg.arg, vals[0], vals[1])
			}
			got[pg.bench.Name] = golden{N: pg.arg, First: pg.first, Value: vals[0]}
		}
	}
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("golden.json", append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden.json has %d scripts, the suites have %d", len(want), len(got))
	}
	for name, g := range got {
		if want[name] != g {
			t.Errorf("%s: got %+v, golden %+v", name, g, want[name])
		}
	}
}

// TestSameSeedSameOps: the op sequences are a pure function of the seed.
func TestSameSeedSameOps(t *testing.T) {
	a, b := roundOps(7, 3, 8, 512), roundOps(7, 3, 8, 512)
	if !slices.Equal(a, b) {
		t.Fatal("same seed and round gave different browser ops")
	}
	if slices.Equal(a, roundOps(8, 3, 8, 512)) || slices.Equal(a, roundOps(7, 4, 8, 512)) {
		t.Fatal("another seed or round gave the same browser ops")
	}
	for d := 0; d < len(a); d += 8 {
		deck := slices.Clone(a[d : d+8])
		slices.Sort(deck)
		if !slices.Equal(deck, []int{0, 1, 2, 3, 4, 5, 6, 7}) {
			t.Fatalf("deck %d is not a permutation: %v", d/8, a[d:d+8])
		}
	}
	sa, sb := tenantStreams(7, 2, 1000), tenantStreams(7, 2, 1000)
	for w := range sa {
		if !slices.Equal(sa[w], sb[w]) {
			t.Fatalf("same seed gave different request streams for worker %d", w)
		}
	}
	if slices.Equal(sa[0], tenantStreams(8, 2, 1000)[0]) || slices.Equal(sa[0], sa[1]) {
		t.Fatal("request streams do not depend on seed and worker")
	}
	secret := 0
	for _, r := range sa[0] {
		if r.probeTenant == r.tenant || int(r.tenant) >= tenantCount || r.probeTenant > secretProbe ||
			int(slices.Max(r.reads[:])) >= tenantReadPages {
			t.Fatalf("malformed request %+v", r)
		}
		if r.probeTenant == secretProbe {
			secret++
		}
	}
	if secret == 0 {
		t.Fatal("no request probes the trusted secret")
	}
}

// TestSameSeedSameCounts: on the single-threaded workloads one seed
// gives identical gate crossings, engine steps and DOM operations.
func TestSameSeedSameCounts(t *testing.T) {
	gold, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []browserSuite{domSuite(), computeSuite()} {
		s.perRound = 2 * len(s.benches)
		var runs [2]counts
		for i := range runs {
			r := &browserRunner{cfg: config{seed: 5, seconds: time.Second}, suite: s, gold: gold, out: &outcome{}}
			p, err := r.phase(core.MPK, false, 1, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.out.problems) > 0 || p.fails.total() > 0 {
				t.Fatalf("run %d: problems %v, failures %v", i, r.out.problems, p.fails)
			}
			runs[i] = p.counts
		}
		if runs[0] != runs[1] {
			t.Errorf("%s: same seed, different counts: %+v vs %+v", s.benches[0].Sub, runs[0], runs[1])
		}
		if runs[0].crossings == 0 || runs[0].steps == 0 {
			t.Errorf("%s: counted nothing: %+v", s.benches[0].Sub, runs[0])
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics printed here in
// step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	if got := names(spec.Workloads); !slices.Equal(got, []string{"dom", "compute", "tenants"}) {
		t.Errorf("workloads %v", got)
	}
	if got := names(spec.EndToEnd); !slices.Equal(got, endToEnd) {
		t.Errorf("end_to_end %v, printed %v", got, endToEnd)
	}
	if got := names(spec.PerLayer); !slices.Equal(got, perLayer) {
		t.Errorf("per_layer %v, printed %v", got, perLayer)
	}
}

// TestTenantsShortRun drives the tenants world with two workers at once
// and expects every check to pass. Under -race it also reports the
// program's own race between vm.Space.SetPKey (an eviction's retag) and
// the unlocked page-key read in vm.Thread.checkPage.
func TestTenantsShortRun(t *testing.T) {
	w, err := buildTenantWorld()
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range tenantStreams(3, maxTenantWorkers, 4096) {
		w.workers = append(w.workers, w.newWorker(i, s))
	}
	p := w.phase(200*time.Millisecond, true)
	out := &outcome{}
	w.verify(out)
	if len(out.problems) > 0 {
		t.Fatalf("problems: %v", out.problems)
	}
	if p.attempted == 0 || p.log.lat.n == 0 || len(p.spans) != maxTenantWorkers {
		t.Fatalf("measured nothing: attempted %d, %d latencies, %d span buffers", p.attempted, p.log.lat.n, len(p.spans))
	}
	if calls := selfOf(p.spans, spCall); len(calls) == 0 {
		t.Fatal("no ffi.call spans recorded")
	}
	if w.workers[0].secretProbes+w.workers[1].secretProbes == 0 {
		t.Fatal("no request probed the trusted secret")
	}
}

// TestHistQuantile: a quantile read from the histogram is within 0.1% of
// the nearest-rank quantile of the logged values.
func TestHistQuantile(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := new(hist)
	var vals []int64
	for i := 0; i < 100_000; i++ {
		v := int64(rng.ExpFloat64() * float64(int64(1)<<(rng.Intn(30))))
		h.add(time.Duration(v))
		vals = append(vals, v)
	}
	slices.Sort(vals)
	for _, q := range []float64{0, 0.01, 0.5, 0.9, 0.99, 0.999, 1} {
		want, got := quantile(vals, q), h.quantile(q)
		if math.Abs(got-want) > want/1000+0.5 {
			t.Errorf("q%g: got %g, want %g", q, got, want)
		}
	}
	for i := 0; i < histBuckets; i++ {
		if j := histIndex(uint64(histValue(i))); j != i && i < histBuckets-1 {
			t.Fatalf("bucket %d: midpoint %g maps to bucket %d", i, histValue(i), j)
		}
	}
}

// TestRefKernelNoAllocs: the reference kernel allocates nothing, so the
// runtime's allocation counts stay the program's.
func TestRefKernelNoAllocs(t *testing.T) {
	r := newRefData()
	if n := testing.AllocsPerRun(5, func() { r.time() }); n != 0 {
		t.Fatalf("reference kernel allocates %v objects a run", n)
	}
}
