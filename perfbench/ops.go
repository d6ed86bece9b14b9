package main

import "math/rand"

// The seed is the benchmark's only source of variation: every op
// sequence below is a pure function of it, and the program sees only
// the generated inputs.

// streamSeed derives an independent generator seed for one stream of a
// run (splitmix64 finalizer over the run seed and the stream number).
func streamSeed(seed int64, stream uint64) int64 {
	z := uint64(seed) + (stream+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// roundOps returns the script order of one browser round: perRound ops
// drawn as shuffled decks of every script, so each round runs each
// script equally often and the seed decides only the order.
func roundOps(seed int64, round, scripts, perRound int) []int {
	rng := rand.New(rand.NewSource(streamSeed(seed, uint64(round))))
	ops := make([]int, 0, perRound)
	for len(ops) < perRound {
		ops = append(ops, rng.Perm(scripts)...)
	}
	return ops[:perRound]
}

// request is one pre-generated tenants request: whose heap it works on,
// which of its pages it reads, and which page of which other tenant it
// probes, or whether it probes the trusted secret instead. The page it
// writes is its worker's (see tenantReadPages).
type request struct {
	tenant      uint8
	reads       [readsPerRequest]uint8
	probeTenant uint8 // another tenant, or secretProbe
	probePage   uint8
}

// secretProbe is the probeTenant of a request that probes the trusted
// secret instead of another tenant's heap.
const secretProbe = tenantCount

// tenantStreams returns one request stream per worker. Tenants are
// picked with Zipf popularity (exponent zipfS) over a seeded popularity
// ranking shared by all workers; pages are uniform, and the probe target
// is uniform over the other tenants and the trusted secret.
func tenantStreams(seed int64, workers, n int) [][]request {
	const base = 1 << 32 // stream numbers disjoint from browser rounds
	rank := rand.New(rand.NewSource(streamSeed(seed, base))).Perm(tenantCount)
	out := make([][]request, workers)
	for w := range out {
		rng := rand.New(rand.NewSource(streamSeed(seed, base+1+uint64(w))))
		z := rand.NewZipf(rng, zipfS, 1, tenantCount-1)
		reqs := make([]request, n)
		for i := range reqs {
			t := rank[z.Uint64()]
			r := request{
				tenant:      uint8(t),
				probeTenant: uint8((t + 1 + rng.Intn(tenantCount)) % (tenantCount + 1)),
				probePage:   uint8(rng.Intn(tenantPages)),
			}
			for k := range r.reads {
				r.reads[k] = uint8(rng.Intn(tenantReadPages))
			}
			reqs[i] = r
		}
		out[w] = reqs
	}
	return out
}
