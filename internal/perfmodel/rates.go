package perfmodel

// Rates is a Model compiled to constant per-source rates, so the simulator's
// hot loop performs one table load and one division per fetch instead of
// re-interpolating throughput curves for every sample.
//
// Every rate is the exact divisor the corresponding Model method would
// compute — FetchPFS divides by EffectivePerClient(γ), FetchLocal/FetchRemote
// by the class's per-thread rates, WriteTime by min(β, w₀(p₀)/p₀) — so every
// quotient is bit-identical to the uncompiled path. The WriteTime collapse
// relies on correctly-rounded division being monotone in the divisor:
// max(s/a, s/b) == s/min(a, b) holds bitwise for s ≥ 0 and a, b > 0.
type Rates struct {
	m *Model
	// pfs[γ] is RandomFraction·t(γ)/γ for γ in [1, len-1]; index 0 unused.
	pfs []float64
	// local[j] is r_j(p_j)/p_j; remote[j] is min(b_c, r_j(p_j)/p_j).
	local, remote []float64
	// write is min(β, w₀(p₀)/p₀): the single binding divisor of WriteTime.
	write float64
}

// Compile precomputes the model's constant rates for PFS reader counts up to
// maxClients (the worker count: γ never exceeds N and the simulator's other
// PFS callers pass N itself).
func (m *Model) Compile(maxClients int) *Rates {
	if maxClients < 1 {
		maxClients = 1
	}
	r := &Rates{m: m, pfs: make([]float64, maxClients+1)}
	for g := 1; g <= maxClients; g++ {
		r.pfs[g] = m.Sys.PFS.EffectivePerClient(g)
	}
	r.local = make([]float64, len(m.Sys.Node.Classes))
	r.remote = make([]float64, len(m.Sys.Node.Classes))
	for j, cls := range m.Sys.Node.Classes {
		rate := cls.ReadPerThread()
		r.local[j] = rate
		if bc := m.Sys.Node.InterconnectMBps; bc < rate {
			rate = bc
		}
		r.remote[j] = rate
	}
	r.write = m.Work.PreprocMBps
	if store := m.Sys.Node.Staging.WritePerThread(); store < r.write {
		r.write = store
	}
	return r
}

// Model returns the model the rates were compiled from.
func (r *Rates) Model() *Model { return r.m }

// PFSRate returns the effective per-client PFS rate at `clients` readers.
func (r *Rates) PFSRate(clients int) float64 {
	if clients >= 1 && clients < len(r.pfs) {
		return r.pfs[clients]
	}
	return r.m.Sys.PFS.EffectivePerClient(clients)
}

// LocalRate returns class j's per-thread read rate r_j(p_j)/p_j.
func (r *Rates) LocalRate(j int) float64 { return r.local[j] }

// RemoteRate returns min(b_c, r_j(p_j)/p_j) for class j.
func (r *Rates) RemoteRate(j int) float64 { return r.remote[j] }

// FetchPFS is Model.FetchPFS through the compiled table.
func (r *Rates) FetchPFS(sizeMB float64, clients int) float64 {
	return sizeMB / r.PFSRate(clients)
}

// FetchRemote is Model.FetchRemote through the compiled table.
func (r *Rates) FetchRemote(sizeMB float64, class int) float64 {
	return sizeMB / r.remote[class]
}

// FetchLocal is Model.FetchLocal through the compiled table.
func (r *Rates) FetchLocal(sizeMB float64, class int) float64 {
	return sizeMB / r.local[class]
}

// WriteTime is Model.WriteTime as a single division (see type comment).
func (r *Rates) WriteTime(sizeMB float64) float64 {
	return sizeMB / r.write
}

// Best is Model.Best through the compiled tables: identical divisions in
// identical comparison order, so ties break the same way bit for bit.
func (r *Rates) Best(sizeMB float64, localClass, remoteClass, clients int) Choice {
	best := Choice{Loc: LocPFS, Class: -1, Seconds: sizeMB / r.PFSRate(clients)}
	if remoteClass >= 0 {
		if t := sizeMB / r.remote[remoteClass]; t < best.Seconds {
			best = Choice{Loc: LocRemote, Class: remoteClass, Seconds: t}
		}
	}
	if localClass >= 0 {
		if t := sizeMB / r.local[localClass]; t < best.Seconds {
			best = Choice{Loc: LocLocal, Class: localClass, Seconds: t}
		}
	}
	return best
}
