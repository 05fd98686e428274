package dist

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matching"
)

// echoProgram: round 0 every node broadcasts its id; round 1 nodes verify
// they heard every neighbor and halt.
type echoProgram struct {
	heard map[int]int32
	fail  bool
}

func (e *echoProgram) Step(api *NodeAPI, round int, inbox []Msg) bool {
	switch round {
	case 0:
		e.heard = make(map[int]int32)
		api.Broadcast(api.ID(), idBits(api.N()))
		return false
	default:
		for _, m := range inbox {
			e.heard[m.FromPort] = m.Payload.(int32)
		}
		if len(e.heard) != api.Degree() {
			e.fail = true
		}
		return true
	}
}

func TestNetworkDeliveryAndPorts(t *testing.T) {
	g := gen.Cycle(7)
	nw := NewNetwork(g, func(v int32) Program { return &echoProgram{} }, 1)
	stats := nw.Run(5)
	for v := int32(0); v < 7; v++ {
		p := nw.progs[v].(*echoProgram)
		if p.fail {
			t.Fatalf("node %d did not hear all neighbors", v)
		}
		// Verify port semantics: payload on port i must be the i-th neighbor.
		for port, id := range p.heard {
			if g.Neighbor(v, port) != id {
				t.Fatalf("node %d port %d: heard %d, want %d", v, port, id, g.Neighbor(v, port))
			}
		}
	}
	if stats.Messages != int64(2*g.M()) {
		t.Errorf("messages = %d, want %d (one broadcast per node)", stats.Messages, 2*g.M())
	}
	if stats.Rounds < 2 {
		t.Errorf("rounds = %d, want >= 2", stats.Rounds)
	}
}

func TestNetworkSendValidation(t *testing.T) {
	g := gen.Path(2)
	defer func() {
		if recover() == nil {
			t.Fatal("invalid port send did not panic")
		}
	}()
	nw := NewNetwork(g, func(v int32) Program {
		return programFunc(func(api *NodeAPI, round int, inbox []Msg) bool {
			api.Send(5, nil, 1)
			return true
		})
	}, 1)
	nw.Run(1)
}

type programFunc func(api *NodeAPI, round int, inbox []Msg) bool

func (f programFunc) Step(api *NodeAPI, round int, inbox []Msg) bool { return f(api, round, inbox) }

func TestRunSparsifierMatchesInvariants(t *testing.T) {
	g := gen.Clique(200)
	delta := 4
	sp, stats := RunSparsifier(g, delta, 7)
	if sp.N() != g.N() {
		t.Fatalf("N mismatch")
	}
	sp.ForEachEdge(func(u, v int32) {
		if !g.HasEdge(u, v) {
			t.Fatalf("sparsifier edge (%d,%d) not in G", u, v)
		}
	})
	if sp.M() > g.N()*delta {
		t.Errorf("sparsifier size %d > nΔ = %d", sp.M(), g.N()*delta)
	}
	// Message complexity: exactly the marks, ≤ nΔ, and crucially ≪ 2m.
	if stats.Messages > int64(g.N()*delta) {
		t.Errorf("messages %d exceed nΔ = %d", stats.Messages, g.N()*delta)
	}
	if stats.Messages >= int64(g.M()) {
		t.Errorf("messages %d not sublinear in m = %d", stats.Messages, g.M())
	}
	for v := int32(0); v < int32(sp.N()); v++ {
		if sp.Degree(v) < delta {
			t.Errorf("vertex %d sparsifier degree %d < Δ", v, sp.Degree(v))
		}
	}
}

func TestRunSparsifierLowDegreeKeepsAll(t *testing.T) {
	g := gen.Cycle(30)
	sp, _ := RunSparsifier(g, 2, 3)
	if sp.M() != g.M() {
		t.Errorf("low-degree: kept %d of %d edges", sp.M(), g.M())
	}
}

func TestRunBoundedDegree(t *testing.T) {
	g := gen.Clique(40)
	da := 6
	sp, stats := RunBoundedDegree(g, da, 5)
	if sp.MaxDegree() > da {
		t.Errorf("max degree %d > Δα = %d", sp.MaxDegree(), da)
	}
	// Must match the centralized construction exactly (both mark the first
	// min(Δα, deg) sorted neighbors).
	want := core.BoundedDegreeSparsifier(g, da)
	if sp.M() != want.M() {
		t.Errorf("distributed %d edges, centralized %d", sp.M(), want.M())
	}
	if stats.Messages > int64(g.N()*da) {
		t.Errorf("messages %d > nΔα", stats.Messages)
	}
}

func TestLinialScheduleShrinks(t *testing.T) {
	steps := linialSchedule(1<<20, 8)
	if len(steps) == 0 {
		t.Fatal("no reduction steps for n = 2^20")
	}
	prev := 1 << 20
	for _, s := range steps {
		if s.k != prev {
			t.Errorf("step input %d, want %d", s.k, prev)
		}
		if s.q*s.q >= prev {
			t.Errorf("step does not shrink: q²=%d k=%d", s.q*s.q, prev)
		}
		if s.q <= 8*s.d {
			t.Errorf("field too small: q=%d D·d=%d", s.q, 8*s.d)
		}
		prev = s.q * s.q
	}
	// log*-ish: for n = 2^20 and D = 8 a handful of steps must suffice.
	if len(steps) > 8 {
		t.Errorf("schedule has %d steps; expected O(log* n)", len(steps))
	}
}

func TestNextPrimeAndIsPrime(t *testing.T) {
	for _, tc := range []struct{ in, want int }{{2, 2}, {3, 3}, {4, 5}, {14, 17}, {90, 97}} {
		if got := nextPrime(tc.in); got != tc.want {
			t.Errorf("nextPrime(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
	if isPrime(1) || isPrime(0) || !isPrime(2) || isPrime(91) {
		t.Error("isPrime misclassifies")
	}
}

func TestPolyEvalLinear(t *testing.T) {
	// color 7 = digits [2, 1] base 5 → p(x) = 2 + x; p(3) mod 5 = 0.
	if got := polyEval(7, 1, 5, 3); got != 0 {
		t.Errorf("polyEval = %d, want 0", got)
	}
}

func TestRunColoringProper(t *testing.T) {
	for _, g := range []*graph.Static{gen.Cycle(50), gen.Path(33), gen.UnitDisk(150, 0.1, 2)} {
		colors, stats := RunColoring(g, 9)
		if !VerifyColoring(g, colors, g.MaxDegree()+1) {
			t.Errorf("improper or oversized coloring (maxdeg %d)", g.MaxDegree())
		}
		if stats.Rounds == 0 {
			t.Error("no rounds recorded")
		}
	}
}

func TestRunColorMMMaximal(t *testing.T) {
	g := gen.UnitDisk(200, 0.12, 4)
	colors, _ := RunColoring(g, 10)
	m, _ := RunColorMM(g, colors, g.MaxDegree()+1, 11)
	if err := matching.Verify(g, m); err != nil {
		t.Fatal(err)
	}
	if !matching.IsMaximal(g, m) {
		t.Error("color MM not maximal")
	}
}

func TestRunRandMMMaximal(t *testing.T) {
	for _, g := range []*graph.Static{gen.Clique(61), gen.Cycle(40), gen.UnitDisk(150, 0.15, 1)} {
		m, stats := RunRandMM(g, 13)
		if err := matching.Verify(g, m); err != nil {
			t.Fatal(err)
		}
		if !matching.IsMaximal(g, m) {
			t.Errorf("randomized MM not maximal (n=%d)", g.N())
		}
		if stats.Rounds > RandMMRounds(g.N()) {
			t.Errorf("rounds %d exceed budget", stats.Rounds)
		}
	}
}

func TestPipelineEndToEnd(t *testing.T) {
	inst := gen.BoundedDiversityInstance(250, 2, 40, 17)
	g := inst.G
	eps := 0.5
	m, ps := ApproxMatchingPipeline(g, inst.Beta, eps, PipelineOptions{Delta: 6, DeltaAlpha: 8, AugIters: 30}, 23)
	if err := matching.Verify(g, m); err != nil {
		t.Fatal(err)
	}
	exact := matching.MaximumGeneral(g).Size()
	if exact > 0 {
		ratio := float64(exact) / float64(m.Size())
		if ratio > 2.0 {
			t.Errorf("pipeline ratio %.2f worse than the maximal-matching bound", ratio)
		}
	}
	// Sublinear message complexity of the sparsify phase (Theorem 3.3).
	if ps.Sparsify.Messages >= int64(g.M()) {
		t.Errorf("sparsify messages %d not sublinear in m = %d", ps.Sparsify.Messages, g.M())
	}
	if ps.Total.Rounds <= 0 || ps.Total.Messages <= 0 {
		t.Error("missing pipeline stats")
	}
}

func TestDirectMMCostsLinearMessages(t *testing.T) {
	g := gen.Clique(80)
	_, stats := DirectMM(g, 5)
	// The first belief-broadcast round alone costs ~2m messages.
	if stats.Messages < int64(g.M()) {
		t.Errorf("direct MM messages %d suspiciously low vs m = %d", stats.Messages, g.M())
	}
}

func TestLinialRoundsGrowsSlowly(t *testing.T) {
	r1 := LinialRounds(1000, 6)
	r2 := LinialRounds(1000000, 6)
	if r2 > r1+3 {
		t.Errorf("Linial rounds grew too fast: %d -> %d", r1, r2)
	}
}
