// Package dtime implements the Theorem 16 Broadcast algorithm of Section
// 6: near-diameter time O(D^{1+eps} polylog n) with polylog n energy.
//
// The algorithm iterates Partition(beta) on the cluster graph: each
// iteration contracts the current clustering (represented as a good
// labeling plus per-vertex cluster ids and shared random seeds) by a
// 3*beta diameter factor (Lemma 15), and after O(log_{1/3beta} D)
// iterations the cluster graph has polylog diameter, at which point the
// Lemma 10 Broadcast finishes the job.
//
// One round of the cluster-graph protocol is simulated with the paper's
// own machinery:
//
//   - intra-cluster Downward/Upward transmissions use the Lemma 17
//     construction: O(C log n) repetitions of an SR-communication window,
//     where in each repetition a cluster participates with probability
//     1/C decided by its shared random seed, so that with constant
//     probability a receiver's neighborhood contains transmitters of a
//     single cluster (C bounds the number of distinct clusters adjacent
//     to any vertex, Lemma 14(2));
//   - inter-cluster merge offers use a plain SR-communication All-cast
//     (any adjacent active cluster's offer is acceptable);
//   - cluster merges re-root the joining cluster at the vertex that
//     captured the offer and propagate new labels with one Upward and one
//     Downward sweep over the old labeling (Section 6.4).
//
// Epochs pipeline decisions with one epoch of lag: offers captured in
// epoch t are gathered to the old root in epoch t and announced (with
// relabeling) in epoch t+1.
//
// Each device runs the whole program as one flat step machine whose
// cursor is explicit — iteration, epoch, phase, Lemma 17
// repetition, then the Lemma 10 Broadcaster's own cursor — and whose
// SR windows are re-armed in place. A run allocates its population (one
// slab of machines, plus one of partition state when the parameters
// iterate) and, during the iterations, one boxed payload per window a
// device sends in; the zero-iteration path allocates nothing after
// set-up. All machines of a run share one *Params.
package dtime

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/labeling"
	"repro/internal/radio"
	"repro/internal/rng"
)

// Params configures a Theorem 16 run; all fields are global knowledge.
// The machines of a run share one *Params and only read it.
type Params struct {
	// Beta is the partition rate (0 < Beta <= 1/4 recommended).
	Beta float64
	// Iterations is the number of cluster-graph partition iterations K.
	Iterations int
	// EpochsPerIter is T = Theta(log n / beta).
	EpochsPerIter int
	// C bounds the distinct clusters adjacent to any vertex (Lemma 14(2)).
	C int
	// CL is the repetition count of each Lemma 17 window (Theta(C log n)).
	CL int
	// FinalD is the diameter bound for the closing Lemma 10 Broadcast.
	FinalD int
	// SR is the base SR-communication window.
	SR cluster.Spec
	// Sims optionally reuses a per-goroutine simulator cache
	// (radio.SimCache). Purely an allocation optimization for repeated
	// runs on one topology; measurements and determinism are unaffected.
	Sims *radio.SimCache
	// layer bounds per iteration: lb[0] = 1 (initial singletons), lb[i] =
	// label bound after iteration i.
	lb []int
}

// NewParams derives the standard parameterization. diam is the known
// diameter bound D (use n when unknown); eps maps to beta =
// log^{-1/eps} n as in Section 6.1, clamped to [1/16, 1/4].
func NewParams(model radio.Model, n, delta, diam int, eps float64) (Params, error) {
	if n < 1 {
		return Params{}, fmt.Errorf("dtime: n = %d", n)
	}
	if eps <= 0 || eps > 1 {
		eps = 0.5
	}
	logN := float64(rng.Log2Ceil(n) + 1)
	beta := math.Pow(logN, -1/eps)
	if beta > 0.25 {
		beta = 0.25
	}
	if beta < 1.0/16 {
		beta = 1.0 / 16
	}
	return newParams(model, n, delta, diam, beta)
}

// NewParamsBeta builds parameters with an explicit beta, for experiments
// sweeping the tradeoff directly.
func NewParamsBeta(model radio.Model, n, delta, diam int, beta float64) (Params, error) {
	if beta <= 0 || beta > 0.25 {
		return Params{}, fmt.Errorf("dtime: beta %v outside (0, 1/4]", beta)
	}
	return newParams(model, n, delta, diam, beta)
}

func newParams(model radio.Model, n, delta, diam int, beta float64) (Params, error) {
	if diam < 1 {
		diam = 1
	}
	logN := rng.Log2Ceil(n) + 1
	shrink := math.Log(1 / (3 * beta))
	if shrink < 0.1 {
		shrink = 0.1
	}
	// Iterate until the estimated cluster-graph diameter reaches the
	// polylog floor (the Lemma 15 analysis permits any Theta(polylog)
	// floor; the constant here keeps K > 0 on experiment-scale graphs).
	floor := logN + 2
	k := 0
	d := float64(diam)
	for d > float64(floor) && k < 64 {
		d = math.Ceil(3*beta*d) + 2
		k++
	}
	t := int(math.Ceil(2 * float64(logN) / beta))
	if t < 4 {
		t = 4
	}
	c := 2*int(math.Ceil(float64(logN)/shrink*math.Ln2)) + 4
	if c > n {
		c = n
	}
	p := Params{
		Beta:          beta,
		Iterations:    k,
		EpochsPerIter: t,
		C:             c,
		CL:            2*c + 2*logN,
		FinalD:        int(d) + 1,
		SR:            cluster.NewSpec(model, n, delta),
		lb:            make([]int, k+1),
	}
	p.lb[0] = 1
	for i := 1; i <= k; i++ {
		p.lb[i] = (2*t+2)*p.lb[i-1] + t + 2
		// Labels are bounded by n-1 on any graph (they strictly increase
		// along paths of distinct vertices), so windows beyond n are
		// never used.
		if p.lb[i] > n {
			p.lb[i] = n
		}
	}
	if p.Slots() > 1<<55 {
		return Params{}, fmt.Errorf("dtime: schedule of %d slots is impractical (D=%d, beta=%v)",
			p.Slots(), diam, beta)
	}
	return p, nil
}

// LayerBound returns the label bound after all iterations.
func (p Params) LayerBound() int { return p.lb[p.Iterations] }

// Tune overrides the protocol constants (for experiments trading failure
// probability against wall time) and recomputes the derived layer bounds.
// n is the network size used to cap the bounds; non-positive arguments
// keep the current values. iters additionally forces the partition
// iteration count (useful on small graphs whose diameter is already
// below the polylog floor).
func (p Params) Tune(n, epochs, c, cl, iters int) Params {
	if epochs > 0 {
		p.EpochsPerIter = epochs
	}
	if c > 0 {
		p.C = c
	}
	if cl > 0 {
		p.CL = cl
	}
	if iters > 0 {
		p.Iterations = iters
	}
	lb := make([]int, p.Iterations+1)
	lb[0] = 1
	for i := 1; i <= p.Iterations; i++ {
		lb[i] = (2*p.EpochsPerIter+2)*lb[i-1] + p.EpochsPerIter + 2
		if lb[i] > n {
			lb[i] = n
		}
	}
	p.lb = lb
	return p
}

// sweepSlots is the slot cost of one Lemma 17 sweep over old labels with
// bound lb: (lb-1) windows of CL repetitions each.
func (p Params) sweepSlots(lb int) uint64 {
	if lb <= 1 {
		return 0
	}
	return uint64(lb-1) * uint64(p.CL) * p.SR.Slots()
}

// epochSlots is the slot cost of one epoch at iteration i (label bound
// lb): announce + relabel-up + relabel-down + offers + gather.
func (p Params) epochSlots(lb int) uint64 {
	return 3*p.sweepSlots(lb) + p.SR.Slots() + p.sweepSlots(lb)
}

// iterSlots is the slot cost of one partition iteration at label bound
// lb: T+1 epochs (the last announces the final gathered joins) plus one
// healing relabel pass.
func (p Params) iterSlots(lb int) uint64 {
	return uint64(p.EpochsPerIter+1)*p.epochSlots(lb) + 2*p.sweepSlots(lb)
}

// Slots returns the full schedule length: K partition iterations plus the
// closing Lemma 10 Broadcast.
func (p Params) Slots() uint64 {
	total := uint64(0)
	for i := 0; i < p.Iterations; i++ {
		total += p.iterSlots(p.lb[i])
	}
	return total + cluster.BroadcastSlots(p.SR, p.LayerBound(), p.FinalD)
}

// message payloads.
type offerMsg struct {
	newCID   int
	newLayer int
	newSeed  uint64
}

type gatherMsg struct {
	oldCID   int
	capturer int
	offer    offerMsg
}

type announceMsg struct {
	oldCID   int
	activate bool
	capturer int
	offer    offerMsg
}

type relabelMsg struct {
	oldCID   int
	newLayer int
}

// DeviceResult is one device's final view.
type DeviceResult struct {
	Informed bool
	Msg      any
	Label    int
	Cluster  int
}

// stage is a machine's top-level position.
type stage uint8

const (
	stStart     stage = iota // first step: draw the cluster seed
	stIterate                // Partition(beta) iterations
	stBroadcast              // the closing Lemma 10 Broadcast
	stDone
)

// phase is a position inside one partition iteration. An epoch runs
// announce, relabel-up, relabel-down, offer and gather; the iteration
// ends with the heal-up and heal-down relabel passes.
type phase uint8

const (
	phAnnounce phase = iota
	phRelabelUp
	phRelabelDown
	phOffer
	phGather
	phHealUp
	phHealDown
)

// machine is the Theorem 16 device program as one flat step machine
// (radio.Proc). Its state is explicit: the partition iteration, epoch,
// phase and Lemma 17 repetition live in its partition state, and the
// closing Lemma 10 Broadcast is the embedded cluster.Broadcaster, whose
// SR window also carries every window of the iterations. Build machines
// with Devices; all of a run's machines share one *Params.
type machine struct {
	p   *Params
	out *DeviceResult
	it  *iterState // nil when p.Iterations == 0

	// b runs the closing broadcast. b.Has and b.Msg hold the device's
	// source flag and message from the start; the iterations never
	// touch them.
	b cluster.Broadcaster

	idx      int
	oldCID   int // current (old) clustering: cluster id
	oldLayer int // and layer
	stage    stage
}

// iterState is a device's Partition(beta) bookkeeping and the cursor of
// the iteration schedule. Every field is a value: the messages a device
// holds are stored inline with presence flags.
type iterState struct {
	oldSeed uint64 // shared random seed of the device's old cluster

	active   bool // member of an already re-clustered cluster
	joined   bool // cluster merged but this member may lack a layer yet
	newCID   int
	newLayer int // -1 until known
	newSeed  uint64

	captured    offerMsg // offer captured in the current epoch
	hasCaptured bool
	pendingJoin gatherMsg // root only: the gathered join decision
	hasPending  bool
	announce    announceMsg // announcement relayed through the cluster
	hasAnnounce bool
	relay       gatherMsg // captured offer being gathered to the root
	hasRelay    bool

	iter  int // current partition iteration index
	start int // root only: start epoch

	epoch     int
	phase     phase
	rep, reps int    // Lemma 17 repetition within the phase, and the count
	t         uint64 // next window's start
	open      bool   // a window is in progress

	// coin is the per-repetition participation generator, reseeded in
	// place for every repetition.
	coinSrc rand.PCG
	coin    rand.Rand
}

// Devices returns a population running Theorem 16 with parameters p on
// len(out) devices. Device v learns its source flag and message from
// src(v) and leaves its final view in out[v]. The machines are one slab,
// and their partition state a second slab when p iterates.
func Devices(p *Params, out []DeviceResult, src func(v int) (bool, any)) []radio.Device {
	n := len(out)
	ms := make([]machine, n)
	var its []iterState
	if p.Iterations > 0 {
		its = make([]iterState, n)
	}
	pop := make([]radio.Device, n)
	for v := range ms {
		m := &ms[v]
		isSource, msg := src(v)
		m.p, m.out = p, &out[v]
		m.b = cluster.Broadcaster{SR: p.SR, Layers: p.LayerBound(), Has: isSource, Msg: msg}
		if its != nil {
			m.it = &its[v]
			m.it.coin = *rand.New(&m.it.coinSrc)
		}
		pop[v].Proc = m
	}
	return pop
}

// Step advances the device program.
func (m *machine) Step(ch radio.Channel, fb radio.Feedback) radio.Action {
	if m.stage == stStart {
		m.idx = ch.Index()
		m.oldCID, m.oldLayer = m.idx, 0
		seed := ch.Rand().Uint64() // the shared seed of the device's singleton cluster
		if m.it == nil {
			m.startBroadcast(1)
		} else {
			m.it.oldSeed, m.it.t = seed, 1
			m.beginIteration(ch, 0)
			m.stage = stIterate
		}
	}
	if m.stage == stIterate {
		s := m.it
		for {
			if s.open {
				if act := m.b.Win.Step(ch, fb); act.Kind != radio.ActHalt {
					return act
				}
				s.open = false
				if msg, ok := m.b.Win.Received(); ok {
					m.accept(msg)
				}
			}
			if !m.openWindow(ch) {
				break
			}
		}
		m.startBroadcast(s.t)
	}
	if m.stage == stBroadcast {
		if act := m.b.Step(ch, fb); act.Kind != radio.ActHalt {
			return act
		}
		m.out.Informed, m.out.Msg = m.b.Has, m.b.Msg
		m.out.Label, m.out.Cluster = m.oldLayer, m.oldCID
		m.stage = stDone
	}
	return radio.Halt()
}

// startBroadcast arms the closing Lemma 10 Broadcast over the final
// clustering's labeling.
func (m *machine) startBroadcast(t uint64) {
	m.b.Label = m.oldLayer
	m.b.Reset(t, m.p.FinalD)
	m.stage = stBroadcast
}

// beginIteration starts Partition(beta) round iter: the per-iteration
// reset (the previous clustering is now "old") and the root's
// exponential shift, then epoch 1.
func (m *machine) beginIteration(ch radio.Channel, iter int) {
	s, p := m.it, m.p
	s.iter = iter
	s.active, s.joined = false, false
	s.newCID, s.newLayer, s.newSeed = -1, -1, 0
	s.hasCaptured, s.hasPending, s.hasAnnounce = false, false, false
	if m.oldCID == m.idx {
		delta := rng.Exponential(ch.Rand(), p.Beta)
		s.start = p.EpochsPerIter - int(math.Ceil(delta))
		if s.start < 1 {
			s.start = 1
		}
	}
	s.epoch = 1
	m.beginPhase(phAnnounce)
}

// beginPhase enters phase ph: its entry effects, and its repetition
// count — one window for the offer, (lb-1)*CL Lemma 17 repetitions for
// a sweep, none when the old labels have a single layer.
func (m *machine) beginPhase(ph phase) {
	s, p := m.it, m.p
	s.phase, s.rep, s.reps = ph, 0, 1
	if ph != phOffer {
		s.reps = 0
		if lb := p.lb[s.iter]; lb > 1 {
			s.reps = (lb - 1) * p.CL
		}
	}
	switch ph {
	case phAnnounce:
		m.announceDecision()
	case phGather:
		s.hasRelay = false
		if s.hasCaptured && !s.joined {
			s.relay = gatherMsg{oldCID: m.oldCID, capturer: m.idx, offer: s.captured}
			s.hasRelay = true
		}
	}
}

// endPhase runs the current phase's exit effects and enters the next
// phase, reporting false when the last iteration is over.
func (m *machine) endPhase(ch radio.Channel) bool {
	s, p := m.it, m.p
	switch s.phase {
	case phGather:
		// The root records the decision; a captured offer at the root
		// itself also counts.
		if m.oldCID == m.idx && !s.joined && !s.hasPending && s.hasRelay {
			s.pendingJoin, s.hasPending = s.relay, true
		}
		s.hasCaptured = false
		s.epoch++
		if s.epoch > p.EpochsPerIter+1 {
			m.beginPhase(phHealUp)
		} else {
			m.beginPhase(phAnnounce)
		}
	case phHealDown:
		if s.newLayer < 0 {
			// Fallback (probability 1/poly(n)): keep the old identity as
			// a singleton-style remnant so the labeling stays good
			// locally.
			s.newCID, s.newLayer, s.newSeed = m.oldCID, m.oldLayer, s.oldSeed
		}
		m.oldCID, m.oldLayer, s.oldSeed = s.newCID, s.newLayer, s.newSeed
		if s.iter+1 == p.Iterations {
			return false
		}
		m.beginIteration(ch, s.iter+1)
	default:
		m.beginPhase(s.phase + 1)
	}
	return true
}

// openWindow arms the next window of the iteration schedule in m.b.Win,
// running phase transitions on the way; false means the iterations are
// over. Roles are decided here, at the window's start.
func (m *machine) openWindow(ch radio.Channel) bool {
	s, p := m.it, m.p
	for s.rep == s.reps {
		if !m.endPhase(ch) {
			return false
		}
	}
	ws := s.t
	role := cluster.Skip
	var payload any
	if s.phase == phOffer {
		switch {
		case s.active && s.epoch <= p.EpochsPerIter:
			role = cluster.Send
			payload = offerMsg{newCID: s.newCID, newLayer: s.newLayer, newSeed: s.newSeed}
		case !s.joined && !s.hasCaptured && s.epoch <= p.EpochsPerIter:
			role = cluster.Receive
		}
	} else {
		// Lemma 17 repetition rep of window win, which links sender layer
		// sl to receiver layer rl of the old labeling; a sender's
		// cluster participates with probability 1/C.
		lb, win := p.lb[s.iter], s.rep/p.CL
		sl, rl := win, win+1
		if s.phase == phRelabelUp || s.phase == phGather || s.phase == phHealUp {
			sl, rl = lb-1-win, lb-2-win
		}
		switch {
		case m.oldLayer == sl && m.sends() && s.flip(p.C, ws):
			role, payload = cluster.Send, m.payload()
		case m.oldLayer == rl:
			role = cluster.Receive
		}
	}
	m.b.Win.Reset(&p.SR, role, ws, payload)
	s.rep++
	s.t += p.SR.Slots()
	s.open = true
	return true
}

// flip reports whether the cluster with the current old seed
// participates in the Lemma 17 repetition anchored at absolute slot ws
// (probability 1/c). Every member derives the same coin.
func (s *iterState) flip(c int, ws uint64) bool {
	rng.Reseed(&s.coinSrc, rng.Child(s.oldSeed, ws))
	return s.coin.IntN(c) == 0
}

// announceDecision is the announce phase's entry: an old root that has
// not joined announces either the gathered join decision or, from its
// start epoch on, self-activation. Roots of singleton clusters act
// locally (no windows exist at lb=1).
func (m *machine) announceDecision() {
	s, p := m.it, m.p
	if m.oldCID != m.idx || s.active || s.joined {
		return
	}
	switch {
	case s.hasPending:
		g := s.pendingJoin
		s.joined = true
		s.newCID, s.newSeed = g.offer.newCID, g.offer.newSeed
		if g.capturer == m.idx {
			s.newLayer = g.offer.newLayer + 1
			s.active = true
		}
		s.announce = announceMsg{oldCID: m.oldCID, capturer: g.capturer, offer: g.offer}
		s.hasAnnounce = true
	case s.start <= s.epoch && s.epoch <= p.EpochsPerIter:
		// Self-activate: the whole old cluster becomes a new cluster.
		m.activate()
		s.announce = announceMsg{oldCID: m.oldCID, activate: true}
		s.hasAnnounce = true
	}
}

// activate makes the device's whole old cluster a new cluster.
func (m *machine) activate() {
	s := m.it
	s.active, s.joined = true, true
	s.newCID, s.newLayer = m.oldCID, m.oldLayer
	s.newSeed = rng.Child(s.oldSeed, uint64(s.iter)+0x5eed)
}

// sends reports whether the device has something to relay in the
// current sweep phase: the announcement (announce), its new layer
// (relabel and heal passes) or a captured offer (gather).
func (m *machine) sends() bool {
	s := m.it
	switch s.phase {
	case phAnnounce:
		return s.hasAnnounce
	case phGather:
		return s.hasRelay
	default:
		return s.joined && s.newLayer >= 0
	}
}

// payload is the message of a sending device in the current sweep
// phase.
func (m *machine) payload() any {
	s := m.it
	switch s.phase {
	case phAnnounce:
		return s.announce
	case phGather:
		return s.relay
	default:
		return relabelMsg{oldCID: m.oldCID, newLayer: s.newLayer}
	}
}

// accept handles a delivery in the current phase's window.
func (m *machine) accept(msg any) {
	s := m.it
	switch s.phase {
	case phAnnounce:
		// Members adopt the new cluster identity the root announced.
		am, ok := msg.(announceMsg)
		if !ok || am.oldCID != m.oldCID || s.joined {
			return
		}
		s.announce, s.hasAnnounce = am, true
		if am.activate {
			m.activate()
			return
		}
		s.joined = true
		s.newCID, s.newSeed = am.offer.newCID, am.offer.newSeed
		if am.capturer == m.idx {
			s.newLayer = am.offer.newLayer + 1
			s.active = true
		}
	case phOffer:
		// Members of still-unclustered clusters capture any offer.
		if om, ok := msg.(offerMsg); ok {
			s.captured, s.hasCaptured = om, true
		}
	case phGather:
		// Captured offers are relayed up the old cluster to its root.
		gm, ok := msg.(gatherMsg)
		if !ok || gm.oldCID != m.oldCID || s.joined {
			return
		}
		s.relay, s.hasRelay = gm, true
	default:
		// Relabel passes propagate new layers through a joined cluster
		// along the old labeling (Section 6.4).
		rm, ok := msg.(relabelMsg)
		if !ok || rm.oldCID != m.oldCID || !s.joined || s.newLayer >= 0 {
			return
		}
		s.newLayer = rm.newLayer + 1
		s.active = true
	}
}

// Outcome aggregates a run.
type Outcome struct {
	Result  *radio.Result
	Devices []DeviceResult
	Labels  labeling.Labeling
}

// AllInformed reports whether every device holds the message.
func (o *Outcome) AllInformed() bool {
	for _, d := range o.Devices {
		if !d.Informed {
			return false
		}
	}
	return true
}

// Broadcast runs the Theorem 16 algorithm on g from source.
func Broadcast(g *graph.Graph, source int, msg any, p Params, seed uint64) (*Outcome, error) {
	if source < 0 || source >= g.N() {
		return nil, fmt.Errorf("dtime: source %d out of range", source)
	}
	n := g.N()
	devs := make([]DeviceResult, n)
	pop := Devices(&p, devs, func(v int) (bool, any) { return v == source, msg })
	res, err := radio.RunDevices(radio.Config{Graph: g, Model: p.SR.Model, Seed: seed, MaxSlots: 1 << 62, Sims: p.Sims}, pop)
	if err != nil {
		return nil, err
	}
	labels := make(labeling.Labeling, n)
	for v := range labels {
		labels[v] = devs[v].Label
	}
	return &Outcome{Result: res, Devices: devs, Labels: labels}, nil
}
