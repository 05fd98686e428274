package harness

// Config controls the scale of the experiment runners.
type Config struct {
	// Quick shrinks instance sizes and repetition counts so the full suite
	// runs in seconds (used by tests and `sparsebench -quick`).
	Quick bool
	// Seed is the master seed; every experiment derives all randomness
	// from it deterministically.
	Seed uint64
	// ServeUpdates overrides the serving bench gate's workload length
	// (0 keeps the mode default). The gate test uses it to bound tier-1
	// runtime; artifact regeneration leaves it 0.
	ServeUpdates int
	// HugeEdges overrides the T21 huge-graph arc target (0 keeps the mode
	// default: ~2·10⁶ quick, 10⁸ full). `sparsebench -t21-edges`.
	HugeEdges int64
}

// pick returns quick or full depending on the configuration.
func (c Config) pick(quick, full int) int {
	if c.Quick {
		return quick
	}
	return full
}

// Experiment is a named experiment runner producing one or more tables.
type Experiment struct {
	ID    string
	Title string
	Run   func(Config) []*Table
}

// All returns the experiment registry in presentation order.
func All() []Experiment {
	return []Experiment{
		{"T1", "Sparsifier quality vs Δ across families (Thm 2.1)", T1},
		{"T2", "Sparsifier quality vs ε (Thm 2.1)", T2},
		{"T3", "Sparsifier size vs Observation 2.10 bounds", T3},
		{"T4", "Sparsifier arboricity vs Observation 2.12 bound", T4},
		{"T5", "Sequential runtime: sublinear pipeline vs full-graph (Thm 3.1)", T5},
		{"T6", "Sequential runtime vs β (Thm 3.1)", T6},
		{"T7", "Distributed rounds breakdown (Thm 3.2)", T7},
		{"T8", "Distributed message complexity (Thm 3.3)", T8},
		{"T9", "Dynamic update cost and quality vs baseline (Thm 3.5)", T9},
		{"T10", "Lower-bound demonstrations (Lemma 2.13, Obs 2.14)", T10},
		{"T11", "Semi-streaming sparsifier: memory vs stream length", T11},
		{"T12", "MPC sparsification: machine loads and coordinator memory", T12},
		{"T13", "Ablations: sampling method, parallelism, mark-all threshold", T13},
		{"T14", "Probe complexity vs the Ω(n·β) lower bound", T14},
		{"T15", "Dynamic distributed maintenance: memory and messages", T15},
		{"T16", "Fault injection: degradation, self-healing, crash recovery", T16},
		{"T17", "Parallel phase-engine scaling and worker-invariance", T17},
		{"T18", "Sparsifier backend shootout: G_Δ vs EDCS on (un)bounded β", T18},
		{"T19", "Served dynamic matching: throughput, latency, replay conformance", T19},
		{"T20", "Durability torture and overload control: faults, recovery, shedding", T20},
		{"T21", "Huge-graph ingestion: streamed chunked CSR build and phase-engine throughput", T21},
		{"F1", "Failure-probability concentration vs n (Thm 2.1)", F1},
		{"F2", "Preserved matching fraction vs Δ (figure series)", F2},
		{"F3", "Matching lower bound across families (Lemma 2.2)", F3},
	}
}

// ByID returns the experiment with the given id, or false.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
