package sched

import (
	"testing"
)

func views(inflight ...int) []ReplicaView {
	vs := make([]ReplicaView, len(inflight))
	for i, f := range inflight {
		vs[i] = ReplicaView{Live: true, InFlight: f, Cap: 4}
	}
	return vs
}

func TestRegistryBuildsEveryName(t *testing.T) {
	for _, name := range Names() {
		p, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, p.Name())
		}
		p.Reset(4, 7)
		if g := p.Pick(0, BatchView{N: 1}, views(0, 0, 0, 0)); g < 0 || g > 3 {
			t.Errorf("%s picked %d on an idle fleet", name, g)
		}
	}
	if _, err := New("nope"); err == nil {
		t.Error("New(nope) did not fail")
	}
}

func TestLeastLoadedPickAndRotation(t *testing.T) {
	p := NewLeastLoaded()
	p.Reset(3, 0)
	vs := views(1, 0, 0)
	// Pick is pure: repeated calls with unchanged state agree.
	g1 := p.Pick(0, BatchView{}, vs)
	g2 := p.Pick(0, BatchView{}, vs)
	if g1 != g2 {
		t.Fatalf("Pick not pure: %d then %d", g1, g2)
	}
	if g1 == 0 {
		t.Fatalf("picked loaded replica 0 over idle ones")
	}
	// Tie on in-flight: occupancy breaks it.
	vs = views(1, 1, 1)
	vs[0].Occ, vs[1].Occ, vs[2].Occ = 2, 0, 1
	if g := p.Pick(0, BatchView{}, vs); g != 1 {
		t.Fatalf("occ tie-break picked %d, want 1", g)
	}
	// All at cap: nothing eligible.
	vs = views(4, 4, 4)
	if g := p.Pick(0, BatchView{}, vs); g != -1 {
		t.Fatalf("picked %d with every replica at cap", g)
	}
	// Rotation advances only on dispatch, and spreads an idle fleet
	// round-robin.
	p.Reset(3, 0)
	idle := views(0, 0, 0)
	var order []int
	for i := 0; i < 6; i++ {
		g := p.Pick(0, BatchView{}, idle)
		order = append(order, g)
		p.OnDispatch(g, 0, 1)
	}
	want := []int{0, 1, 2, 0, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("rotation order %v, want %v", order, want)
		}
	}
}

func TestJSQDeterministicAndEligible(t *testing.T) {
	a, b := NewJSQ(2), NewJSQ(2)
	a.Reset(8, 42)
	b.Reset(8, 42)
	vs := views(3, 1, 0, 2, 0, 1, 4, 2)
	for i := 0; i < 100; i++ {
		ga := a.Pick(int64(i), BatchView{}, vs)
		gb := b.Pick(int64(i), BatchView{}, vs)
		if ga != gb {
			t.Fatalf("same-seed JSQ diverged at pick %d: %d vs %d", i, ga, gb)
		}
		if !vs[ga].eligible() {
			t.Fatalf("JSQ picked ineligible replica %d", ga)
		}
		a.OnDispatch(ga, int64(i), 1)
		b.OnDispatch(gb, int64(i), 1)
	}
	// Sampled set all ineligible but capacity exists elsewhere: must not
	// return -1.
	vs = views(4, 4, 4, 4, 4, 4, 4, 0)
	for i := 0; i < 50; i++ {
		if g := a.Pick(0, BatchView{}, vs); g != 7 {
			t.Fatalf("JSQ fallback picked %d, want 7 (the only eligible)", g)
		}
	}
}

// TestJSQSamplesDistinctReplicas: with d equal to the fleet size, JSQ
// looks at every replica, so it must always find the one with the least
// InFlight + Occ. Sampling with replacement looks at one replica twice a
// quarter of the time at n = d = 2 and misses the lighter one half of that.
func TestJSQSamplesDistinctReplicas(t *testing.T) {
	p := NewJSQ(2)
	p.Reset(2, 3)
	for _, light := range []int{0, 1} {
		vs := views(1, 1)
		vs[light].Occ = 0
		vs[1-light].Occ = 2
		for i := 0; i < 200; i++ {
			if g := p.Pick(int64(i), BatchView{N: 1}, vs); g != light {
				t.Fatalf("pick %d: JSQ(2) over 2 replicas chose %d, want the lighter %d", i, g, light)
			}
		}
	}
	vs := views(0, 1, 2, 3)
	q := NewJSQ(2)
	q.Reset(len(vs), 9)
	if a := testing.AllocsPerRun(100, func() { q.Pick(0, BatchView{N: 1}, vs) }); a != 0 {
		t.Fatalf("JSQ.Pick allocates %.1f times per call, want 0", a)
	}
}

type fakeOracle struct{ work []int64 }

func (o fakeOracle) RemainingWork(g int) int64 { return o.work[g] }

func TestIdealFollowsOracle(t *testing.T) {
	p := NewIdeal()
	p.Reset(3, 0)
	p.BindOracle(fakeOracle{work: []int64{500, 20, 300}})
	// In-flight says replica 0, the oracle knows replica 1 has least work.
	vs := views(0, 1, 1)
	if g := p.Pick(0, BatchView{}, vs); g != 1 {
		t.Fatalf("ideal picked %d, want 1 (least true work)", g)
	}
	// Unbound: degrades to least-loaded, never crashes.
	q := NewIdeal()
	q.Reset(3, 0)
	if g := q.Pick(0, BatchView{}, vs); g != 0 {
		t.Fatalf("unbound ideal picked %d, want 0 (least-loaded)", g)
	}
}

func TestRandSplitMix64Vector(t *testing.T) {
	// The canonical splitmix64 test vector (seed 0): pins the stream so
	// seeded policy behavior can never drift with a library change.
	r := NewRand(0)
	want := []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f}
	for i, w := range want {
		if got := r.Uint64(); got != w {
			t.Fatalf("splitmix64[%d] = %#x, want %#x", i, got, w)
		}
	}
}
