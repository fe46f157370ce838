package radio

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/rng"
)

// runEntry is one pending run in the slot-ordered queue: devices that
// posted the same slot next to each other in one gather round, linked
// in ascending device order through Simulator.next from head. A device
// sits in at most one pending run, so the queue never exceeds n entries.
type runEntry struct {
	slot uint64
	head int32
}

// Simulator is a reusable execution engine bound to one topology. It
// preallocates every per-device structure — envs, action lanes, random
// streams, the run queue with its links, and scratch — once, so that
// repeated runs on the same graph (Monte-Carlo trials, benchmark
// iterations) stop churning the allocator: a run allocates one Result
// and its counter backing array, nothing else.
//
// Per-device action state lives in structure-of-arrays lanes (slot,
// kind, payload, feedback, error) rather than a padded per-device
// struct: with every proc stepped on the scheduler goroutine there is
// no cross-goroutine sharing to pad against, and the cohort loops scan
// each lane contiguously.
//
// Pending requests wait in a 4-ary min-heap of runs rather than of
// devices: each gather round's posted list is ascending, so every
// maximal stretch of it asking for one slot is queued as one entry whose
// devices are linked through next. When most devices act in lockstep, a
// round queues a handful of runs instead of n devices.
//
// A Simulator is NOT safe for concurrent use; run one per goroutine
// (internal/sweep keeps one cache per worker). Determinism is untouched
// by reuse: every run fully reseeds and resets the per-device state, so
// a run yields the byte-identical event stream whether the Simulator is
// fresh or recycled.
type Simulator struct {
	g      *graph.Graph
	off    []int32 // CSR row offsets, shared with g
	adj    []int32 // CSR neighbor array, shared with g
	n      int
	maxDeg int
	base   Config // template captured by NewSimulator (Seed overridden per run)

	// per-run binding (scalars from the run's Config).
	model     Model
	trace     func(Event)
	maxSlots  uint64
	maxEvents uint64
	diam      int // exposed to devices; -1 when unknown
	idSpace   int
	ids       []int

	// fault injection (see internal/fault). fplan is the run's bound
	// decision procedure; the three booleans cache its kind so the hot
	// loops pay one predictable branch when faults are off. sleepUntil[v]
	// is the first slot after v's current sleep window (0 = not asleep).
	fplan      fault.Plan
	faultCrash bool
	faultSleep bool
	faultLoss  bool
	sleepUntil []uint64

	// preallocated machinery. slots/kinds/payloads/fbs/errs are the
	// per-device action lanes: the device's pending request (written by
	// stepDevice) and its feedback for the next step (written by the
	// cohort resolution).
	envs       []Env
	pcgs       []rand.PCG
	slots      []uint64
	kinds      []actionKind
	payloads   []any // in-flight transmit payloads (cleared per slot)
	fbs        []Feedback
	errs       []error
	heap       []runEntry // pending runs, a 4-ary min-heap on (slot, head)
	next       []int32    // run links: the next device of v's run, -1 at its tail
	cohort     []int32
	posted     []int32 // per-round scratch: non-halt posts, ascending device order
	awaiting   []int32 // devices whose next action the scheduler is waiting on
	txs        []int32 // per-listener scratch: transmitting neighbors
	lastTxSlot []uint64
	procs      []Proc // per-run device step machines
	intBox     []any  // lazily grown boxed-integer interning table (BoxInt)

	running atomic.Bool

	res *Result // current run's result, owned by the scheduler loop

	// loop state, held on the struct because a scheduler round spans two
	// methods (gather / resolveSlot).
	live     int   // devices not yet halted
	firstErr error // first device error, reported when the run ends

	// Result arena: per-run Results and their counter backing arrays are
	// carved out of batch-allocated chunks (see newResult), amortizing
	// the two per-run allocations a recycled Simulator used to make
	// across ~a chunk's worth of Monte-Carlo trials.
	resArena   []int
	resStructs []Result
}

// NewSimulator builds a reusable engine for g. cfg provides the run
// template: model, budgets, diameter/ID exposure, and trace sink; its
// Graph field is ignored in favor of g and its Seed is overridden by
// each run call. The per-run scalars can also be rebound wholesale by
// the package-level RunDevices with a SimCache.
func NewSimulator(g *graph.Graph, cfg Config) (*Simulator, error) {
	if g == nil || g.N() == 0 {
		return nil, errors.New("radio: nil or empty graph")
	}
	n := g.N()
	off, adj := g.CSR()
	s := &Simulator{
		g:          g,
		off:        off,
		adj:        adj,
		n:          n,
		maxDeg:     g.MaxDegree(),
		base:       cfg,
		ids:        make([]int, n),
		envs:       make([]Env, n),
		pcgs:       make([]rand.PCG, n),
		slots:      make([]uint64, n),
		kinds:      make([]actionKind, n),
		payloads:   make([]any, n),
		fbs:        make([]Feedback, n),
		errs:       make([]error, n),
		heap:       make([]runEntry, 0, n),
		next:       make([]int32, n),
		cohort:     make([]int32, 0, n),
		posted:     make([]int32, 0, n),
		awaiting:   make([]int32, 0, n),
		txs:        make([]int32, 0, 8),
		lastTxSlot: make([]uint64, n),
		sleepUntil: make([]uint64, n),
		procs:      make([]Proc, n),
	}
	s.base.Graph = g
	for v := 0; v < n; v++ {
		s.envs[v] = Env{
			sim:   s,
			index: v,
			rand:  rand.New(&s.pcgs[v]),
		}
	}
	return s, nil
}

// RunDevices executes one device per vertex under the Simulator's
// template config with the given seed, reusing every preallocated
// structure. The returned Result is freshly allocated and remains valid
// across later runs. Procs are single-use state machines: pass freshly
// initialized ones per run. Feedback lifetime contract: in the Local
// model the Payloads slice handed to a device is a per-device buffer
// valid until that device's next channel action — copy it to retain it.
func (s *Simulator) RunDevices(seed uint64, devs []Device) (*Result, error) {
	cfg := s.base
	cfg.Seed = seed
	return s.run(cfg, devs)
}

// bind installs one run's scalar configuration, validating exactly as the
// original one-shot engine did.
func (s *Simulator) bind(cfg Config) error {
	s.model = cfg.Model
	s.trace = cfg.Trace
	s.maxSlots = cfg.MaxSlots
	if s.maxSlots == 0 {
		s.maxSlots = 1 << 40
	}
	s.maxEvents = cfg.MaxEvents
	if s.maxEvents == 0 {
		s.maxEvents = 1 << 28
	}
	s.diam = -1
	if cfg.KnowDiameter {
		d := cfg.Diameter
		if d == 0 {
			var err error
			if d, err = s.g.Diameter(); err != nil {
				return fmt.Errorf("radio: KnowDiameter: %w", err)
			}
		}
		s.diam = d
	}
	if err := cfg.Fault.Validate(); err != nil {
		return fmt.Errorf("radio: %w", err)
	}
	s.fplan = cfg.Fault.Plan(cfg.Seed)
	s.faultCrash = s.fplan.Kind() == fault.Crash
	s.faultSleep = s.fplan.Kind() == fault.Sleep
	s.faultLoss = s.fplan.Kind() == fault.Loss
	s.idSpace = cfg.IDSpace
	if cfg.IDSpace > 0 {
		if cfg.IDs != nil {
			if len(cfg.IDs) != s.n {
				return fmt.Errorf("radio: %d IDs for %d vertices", len(cfg.IDs), s.n)
			}
			seen := make(map[int]bool, s.n)
			for _, id := range cfg.IDs {
				if id < 1 || id > cfg.IDSpace {
					return fmt.Errorf("radio: ID %d outside {1..%d}", id, cfg.IDSpace)
				}
				if seen[id] {
					return fmt.Errorf("radio: duplicate ID %d", id)
				}
				seen[id] = true
			}
			copy(s.ids, cfg.IDs)
		} else {
			if cfg.IDSpace < s.n {
				return fmt.Errorf("radio: IDSpace %d < n %d", cfg.IDSpace, s.n)
			}
			for i := range s.ids {
				s.ids[i] = i + 1
			}
		}
	} else {
		for i := range s.ids {
			s.ids[i] = 0
		}
	}
	return nil
}

// run resets all reusable state, installs the device population, and
// drives the scheduler loop to completion.
func (s *Simulator) run(cfg Config, devs []Device) (*Result, error) {
	if !s.running.CompareAndSwap(false, true) {
		return nil, errors.New("radio: Simulator used concurrently")
	}
	defer s.running.Store(false)
	res, err := s.prepare(cfg, devs)
	if err != nil {
		return nil, err
	}
	// A scheduler-side panic (e.g. a user Trace callback) must not
	// poison the Simulator for reuse: drop the run's references, then
	// let the panic surface.
	defer func() {
		if r := recover(); r != nil {
			s.finish()
			panic(r)
		}
	}()
	err = s.loop()
	s.finish()
	return res, err
}

// prepare validates one run's configuration and population and resets
// every reusable structure, leaving the Simulator ready for its first
// gather round. The returned Result is the run's output, already carved
// from the arena.
func (s *Simulator) prepare(cfg Config, devs []Device) (*Result, error) {
	if len(devs) != s.n {
		return nil, fmt.Errorf("radio: %d devices for %d vertices", len(devs), s.n)
	}
	for v := range devs {
		if devs[v].Proc == nil {
			return nil, fmt.Errorf("radio: device %d has no Proc", v)
		}
	}
	if err := s.bind(cfg); err != nil {
		return nil, err
	}
	n := s.n
	res := s.newResult()
	s.res = res
	s.heap = s.heap[:0]
	s.cohort = s.cohort[:0]
	s.awaiting = s.awaiting[:0]
	for v := 0; v < n; v++ {
		s.slots[v], s.kinds[v], s.payloads[v], s.fbs[v], s.errs[v] = 0, 0, nil, Feedback{}, nil
		s.lastTxSlot[v] = 0
		s.sleepUntil[v] = 0
		e := &s.envs[v]
		e.now = 0
		e.devID = s.ids[v]
		clearAny(e.pbuf)
		rng.ReseedChild(&s.pcgs[v], cfg.Seed, uint64(v))
		s.procs[v] = devs[v].Proc
		s.awaiting = append(s.awaiting, int32(v))
	}
	s.live = n
	s.firstErr = nil
	return res, nil
}

// finish drops the run's references so a recycled Simulator does not pin
// the previous run's result or device state machines.
func (s *Simulator) finish() {
	s.res = nil
	for v := range s.procs {
		s.procs[v] = nil
	}
}

// resultChunkBytes sizes the Result arena chunks: enough counter words
// for ~a hundred small-graph runs per allocation without any chunk
// growing past a quarter megabyte on large graphs.
const resultChunkBytes = 1 << 18

// newResult carves one run's Result — the struct and the single backing
// array for its three per-device counters — out of the Simulator's
// batch-allocated arena, refilling the arena with a fresh chunk when
// exhausted. Chunks are never recycled, so every carved region is
// untouched zero memory and every returned Result stays valid across
// later runs, exactly as the per-run make() did; the change is purely
// that the two allocations now happen once per chunk instead of once
// per run. Retaining one Result pins at most its chunk.
func (s *Simulator) newResult() *Result {
	n := s.n
	if len(s.resStructs) == 0 {
		batch := resultChunkBytes / (3 * n * 8)
		if batch < 1 {
			batch = 1
		}
		if batch > 128 {
			batch = 128
		}
		s.resArena = make([]int, 3*n*batch)
		s.resStructs = make([]Result, batch)
	}
	counters := s.resArena[: 3*n : 3*n]
	s.resArena = s.resArena[3*n:]
	res := &s.resStructs[0]
	s.resStructs = s.resStructs[1:]
	res.Energy = counters[0*n : 1*n : 1*n]
	res.Transmits = counters[1*n : 2*n : 2*n]
	res.Listens = counters[2*n : 3*n : 3*n]
	return res
}

// clearAny nils a payload buffer through its full capacity so a recycled
// Simulator does not pin the previous run's delivered messages.
func clearAny(buf []any) {
	buf = buf[:cap(buf)]
	for i := range buf {
		buf[i] = nil
	}
}

// loop is the scheduler: it steps every awaited device to its next
// channel action, advances to the minimum requested slot, resolves the
// channel there in ascending device order — the order the golden trace
// test pins — and hands each cohort member its feedback for the next
// round's step.
//
// A round has two halves with disjoint jobs. gather is the only half
// that calls protocol code (it steps devices), and it picks the slot;
// resolveSlot is the slot substrate alone (faults, collisions, energy)
// for that slot. The boundary is where fault injection hooks in and
// where the protocol-step and slot-substrate layers divide.
func (s *Simulator) loop() error {
	for {
		t, done := s.gather()
		if done {
			return s.firstErr
		}
		if err := s.resolveSlot(t); err != nil {
			return err
		}
	}
}

// gather steps every awaited device to its next channel action, retires
// halted devices, and selects the next populated slot and its cohort.
// done reports that every device has halted (the run's outcome is then
// s.firstErr); otherwise the returned slot's cohort is staged in
// s.cohort, ready for resolveSlot.
func (s *Simulator) gather() (t uint64, done bool) {
	// The awaiting list is in ascending device order (it is the previous
	// cohort, or all devices initially), so posted inherits that order.
	s.stepAwaited()
	s.posted = s.posted[:0]
	// runs counts the maximal same-slot stretches of posted. Requested
	// slots are at least 1 (a device clock starts at 0 and every action
	// lies strictly ahead of it), so 0 never matches a first post.
	runs, last := 0, uint64(0)
	for _, v := range s.awaiting {
		if s.kinds[v] == actHalt {
			s.live--
			if s.errs[v] != nil && s.firstErr == nil {
				s.firstErr = s.errs[v]
			}
			s.errs[v] = nil
			continue
		}
		s.posted = append(s.posted, v)
		if s.slots[v] != last {
			runs++
			last = s.slots[v]
		}
	}
	s.awaiting = s.awaiting[:0]
	if s.live == 0 {
		return 0, true
	}
	if runs == 1 && len(s.heap) == 0 {
		// One run and nothing pending: the cohort is the posted list
		// itself (already ascending), so swap the buffers and skip the
		// queue altogether.
		s.cohort, s.posted = s.posted, s.cohort
		return last, false
	}
	s.pushRuns()
	return s.popCohort(), false
}

// pushRuns queues the round's posted list as runs: each maximal stretch
// asking for one slot is linked head to tail through s.next and pushed
// as a single entry.
func (s *Simulator) pushRuns() {
	posted := s.posted
	for i := 0; i < len(posted); {
		head := posted[i]
		slot := s.slots[head]
		j := i + 1
		for ; j < len(posted) && s.slots[posted[j]] == slot; j++ {
			s.next[posted[j-1]] = posted[j]
		}
		s.next[posted[j-1]] = -1
		s.heapPush(runEntry{slot: slot, head: head})
		i = j
	}
}

// popCohort pops every run queued for the minimum slot and stages their
// devices in s.cohort, returning that slot. Runs pop in head order and
// each is ascending, so the concatenation is already in ascending device
// order unless runs from different rounds interleave; only then is the
// cohort sorted.
func (s *Simulator) popCohort() uint64 {
	t := s.heap[0].slot
	cohort := s.cohort[:0]
	sorted := true
	for len(s.heap) > 0 && s.heap[0].slot == t {
		v := s.heapPop().head
		if len(cohort) > 0 && v < cohort[len(cohort)-1] {
			sorted = false
		}
		for ; v >= 0; v = s.next[v] {
			cohort = append(cohort, v)
		}
	}
	if !sorted {
		slices.Sort(cohort)
	}
	s.cohort = cohort
	return t
}

// resolveSlot resolves the gathered cohort at slot t: budget checks,
// energy accounting, trace emission and listener feedback, in ascending
// device order. The cohort is re-awaited for the next gather round.
func (s *Simulator) resolveSlot(t uint64) error {
	if t > s.maxSlots {
		return fmt.Errorf("%w: slot %d > MaxSlots %d", ErrBudget, t, s.maxSlots)
	}
	if t > s.res.Slots {
		s.res.Slots = t
	}
	// Inject crash and sleep faults before any action is recorded, so a
	// faulted device's transmit is never heard and its listen costs no
	// energy. Loss faults are injected per listener inside resolve.
	if s.faultCrash {
		s.injectCrashes(t)
	} else if s.faultSleep {
		s.injectSleeps(t)
	}
	// Record transmissions first so every listener sees them; payloads
	// stay parked in the transmitters' lane cells.
	for _, v := range s.cohort {
		k := s.kinds[v]
		if k == actTransmit || k == actTransmitListen {
			s.lastTxSlot[v] = t + 1
		}
	}
	// Account energy, emit traces, compute feedback — in device order.
	for _, v := range s.cohort {
		switch s.kinds[v] {
		case actTransmit:
			s.res.Energy[v]++
			s.res.Transmits[v]++
			s.res.Events++
			s.emit(Event{Slot: t, Dev: int(v), Kind: EventTransmit, Payload: s.payloads[v], From: -1})
		case actListen:
			s.res.Energy[v]++
			s.res.Listens[v]++
			s.res.Events++
			s.fbs[v] = s.resolve(v, t)
		case actTransmitListen:
			// Awake for one slot: energy 1 even though both action
			// counters advance (the paper charges per non-idle slot).
			s.res.Energy[v]++
			s.res.Transmits[v]++
			s.res.Listens[v]++
			s.res.Events += 2
			s.emit(Event{Slot: t, Dev: int(v), Kind: EventTransmit, Payload: s.payloads[v], From: -1})
			s.fbs[v] = s.resolve(v, t)
		}
		if s.res.Events > s.maxEvents {
			return fmt.Errorf("%w: events > MaxEvents %d", ErrBudget, s.maxEvents)
		}
	}
	// The slot is fully resolved: its payloads are dead. Clearing the
	// cells here is what makes a long-lived payload collectable
	// mid-run.
	for _, v := range s.cohort {
		s.payloads[v] = nil
	}
	// The cohort's feedback is in place; its members are stepped
	// again at the top of the next round.
	s.awaiting = append(s.awaiting, s.cohort...)
	return nil
}

// injectCrashes applies crash-stop faults to the slot-t cohort: a device
// whose positional hash fires is removed from the cohort (its action —
// transmit, listen, or both — simply never happens) and retired for the
// rest of the run, exactly like a halt but without an error. Compaction
// preserves the cohort's ascending device order, so the surviving round
// is resolved in the order a fault-free engine would use.
func (s *Simulator) injectCrashes(t uint64) {
	kept := s.cohort[:0]
	for _, v := range s.cohort {
		if s.fplan.Fires(v, t) {
			s.res.FaultCrashes++
			s.payloads[v] = nil
			s.live--
			continue
		}
		kept = append(kept, v)
	}
	s.cohort = kept
}

// injectSleeps applies sleep faults to the slot-t cohort: a device whose
// hash fires — or that is still inside an earlier window — has this
// slot's action suppressed (kinds set to actNone: no energy, transmit
// unheard, listen observes silence via its zeroed feedback). The device
// stays in the cohort and is re-awaited normally; it resumes acting once
// the window passes.
func (s *Simulator) injectSleeps(t uint64) {
	for _, v := range s.cohort {
		asleep := t < s.sleepUntil[v]
		if !asleep && s.fplan.Fires(v, t) {
			s.res.FaultSleeps++
			s.sleepUntil[v] = t + s.fplan.Window()
			asleep = true
		}
		if asleep {
			s.kinds[v] = actNone
		}
	}
}

// stepLimit bounds the consecutive actionless steps (sleeps) the
// scheduler will drive one device through before declaring it stuck —
// a backstop against a proc that keeps returning non-advancing sleeps,
// which would otherwise wedge the scheduler.
const stepLimit = 1 << 20

// stepAwaited advances every awaited device to its next channel action.
// The deferred panic handler is installed once per contiguous run of
// non-panicking devices rather than once per device step; a panicking
// device is halted with its error and stepping resumes with the next.
func (s *Simulator) stepAwaited() {
	for i := 0; i < len(s.awaiting); {
		i = s.stepFrom(i)
	}
}

// stepFrom steps awaiting[start:] in order, returning the index to
// resume from after a device panic (len(awaiting) when none panicked).
// A panic out of Step — including the slot-ordering violation the
// engine enforces — becomes the same halt-with-error outcome a device
// panic has always had.
func (s *Simulator) stepFrom(start int) (next int) {
	i := start
	defer func() {
		if r := recover(); r != nil {
			v := s.awaiting[i]
			s.kinds[v] = actHalt
			s.errs[v] = fmt.Errorf("radio: device %d panicked: %v", v, r)
			next = i + 1
		}
	}()
	for ; i < len(s.awaiting); i++ {
		s.stepDevice(s.awaiting[i])
	}
	return i
}

// stepDevice advances one proc until it produces a channel action or
// halts, publishing the result into the device's lane cells. Sleeps
// only move the device clock.
func (s *Simulator) stepDevice(v int32) {
	e := &s.envs[v]
	fb := s.fbs[v]
	s.fbs[v] = Feedback{}
	for i := 0; ; i++ {
		act := s.procs[v].Step(e, fb)
		fb = Feedback{}
		switch act.Kind {
		case ActSleep:
			if act.Slot > e.now {
				e.now = act.Slot
			}
			if i >= stepLimit {
				s.kinds[v] = actHalt
				s.errs[v] = fmt.Errorf("radio: device %d stepped %d times without a channel action", v, i)
				return
			}
		case ActHalt:
			s.kinds[v] = actHalt
			return
		case ActTransmit, ActListen, ActTransmitListen:
			if act.Slot <= e.now {
				panic(fmt.Sprintf("radio: device %d scheduled slot %d, but its clock is already at %d", v, act.Slot, e.now))
			}
			s.slots[v] = act.Slot
			s.payloads[v] = act.Payload
			switch act.Kind {
			case ActTransmit:
				s.kinds[v] = actTransmit
			case ActListen:
				s.kinds[v] = actListen
			default:
				s.kinds[v] = actTransmitListen
			}
			e.now = act.Slot
			return
		default:
			panic(fmt.Sprintf("radio: device %d returned invalid action kind %d", v, act.Kind))
		}
	}
}

func (s *Simulator) emit(ev Event) {
	if s.trace != nil {
		s.trace(ev)
	}
}

// resolve computes listener v's feedback at slot t, first applying any
// lossy-slot fault: when the listener's positional hash fires and the
// channel outcome would have been a delivery, the delivery is erased to
// silence (trace included). Noise and silence are not "successful
// transmissions", so they are never erased — a lossy CD slot still
// reports its collision.
func (s *Simulator) resolve(v int32, t uint64) Feedback {
	if s.faultLoss && s.fplan.Fires(v, t) && s.wouldReceive(v, t) {
		s.res.FaultErasures++
		s.emit(Event{Slot: t, Dev: int(v), Kind: EventSilence, From: -1})
		return Feedback{Status: Silence}
	}
	return s.resolveChannel(v, t)
}

// wouldReceive reports whether listener v's slot-t outcome would be
// Received under the run's model: at least one transmitting neighbor for
// CD* and Local, exactly one for CD and No-CD.
func (s *Simulator) wouldReceive(v int32, t uint64) bool {
	cnt := 0
	for _, w := range s.adj[s.off[v]:s.off[v+1]] {
		if s.lastTxSlot[w] == t+1 {
			cnt++
			if cnt >= 2 {
				break
			}
		}
	}
	if s.model == Local || s.model == CDStar {
		return cnt >= 1
	}
	return cnt == 1
}

// resolveChannel computes listener v's feedback at slot t under the
// run's model. Neighbors come from the CSR mirror and are sorted
// ascending by the graph invariant, so transmitter sets need no
// per-listener sort and the scan stops as soon as the model's outcome is
// decided: after the first transmitter for CD* (it delivers the
// lowest-index one), after the second for CD and No-CD (noise/silence
// either way). Single payloads resolve straight out of the transmitter's
// lane cell; the Local model fills the listener's reusable per-env
// buffer (valid until the device's next action).
func (s *Simulator) resolveChannel(v int32, t uint64) Feedback {
	need := 2 // CD and No-CD outcomes are fixed once two transmitters are seen
	switch s.model {
	case Local:
		need = int(^uint(0) >> 1)
	case CDStar:
		need = 1
	}
	txs := s.txs[:0]
	for _, w := range s.adj[s.off[v]:s.off[v+1]] {
		if s.lastTxSlot[w] == t+1 {
			txs = append(txs, w)
			if len(txs) >= need {
				break
			}
		}
	}
	s.txs = txs
	switch s.model {
	case Local:
		if len(txs) == 0 {
			s.emit(Event{Slot: t, Dev: int(v), Kind: EventSilence, From: -1})
			return Feedback{Status: Silence}
		}
		e := &s.envs[v]
		payloads := e.pbuf[:0]
		for _, w := range txs {
			p := s.payloads[w]
			payloads = append(payloads, p)
			s.emit(Event{Slot: t, Dev: int(v), Kind: EventReceive, Payload: p, From: int(w)})
		}
		// Nil the tail beyond this delivery so payloads from a larger
		// earlier delivery don't stay pinned by the buffer's backing
		// array (the previous slice is contractually invalid by now).
		clearAny(payloads[len(payloads):cap(payloads)])
		e.pbuf = payloads
		return Feedback{Status: Received, Payload: payloads[0], Payloads: payloads}
	case CDStar:
		if len(txs) == 0 {
			s.emit(Event{Slot: t, Dev: int(v), Kind: EventSilence, From: -1})
			return Feedback{Status: Silence}
		}
		w := txs[0] // arbitrary choice, fixed deterministically
		p := s.payloads[w]
		s.emit(Event{Slot: t, Dev: int(v), Kind: EventReceive, Payload: p, From: int(w)})
		return Feedback{Status: Received, Payload: p}
	case CD:
		switch len(txs) {
		case 0:
			s.emit(Event{Slot: t, Dev: int(v), Kind: EventSilence, From: -1})
			return Feedback{Status: Silence}
		case 1:
			w := txs[0]
			p := s.payloads[w]
			s.emit(Event{Slot: t, Dev: int(v), Kind: EventReceive, Payload: p, From: int(w)})
			return Feedback{Status: Received, Payload: p}
		default:
			s.emit(Event{Slot: t, Dev: int(v), Kind: EventNoise, From: -1})
			return Feedback{Status: Noise}
		}
	default: // NoCD
		if len(txs) == 1 {
			w := txs[0]
			p := s.payloads[w]
			s.emit(Event{Slot: t, Dev: int(v), Kind: EventReceive, Payload: p, From: int(w)})
			return Feedback{Status: Received, Payload: p}
		}
		s.emit(Event{Slot: t, Dev: int(v), Kind: EventSilence, From: -1})
		return Feedback{Status: Silence}
	}
}

// runLess orders queued runs by slot, breaking ties by head device so a
// slot's runs pop in head order.
func runLess(a, b runEntry) bool {
	if a.slot != b.slot {
		return a.slot < b.slot
	}
	return a.head < b.head
}

// heapPush adds e to the 4-ary run heap, sifting a hole up from the
// new leaf instead of swapping at every level.
func (s *Simulator) heapPush(e runEntry) {
	h := append(s.heap, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !runLess(e, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	s.heap = h
}

// heapPop removes and returns the minimum run, sifting the last entry
// down from the root's hole.
func (s *Simulator) heapPop() runEntry {
	h := s.heap
	top := h[0]
	n := len(h) - 1
	e := h[n]
	h = h[:n]
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for k, end := c+1, min(c+4, n); k < end; k++ {
			if runLess(h[k], h[m]) {
				m = k
			}
		}
		if !runLess(h[m], e) {
			break
		}
		h[i] = h[m]
		i = m
	}
	if n > 0 {
		h[i] = e
	}
	s.heap = h
	return top
}

// internCap bounds the boxed-integer interning table: values in
// [0, internCap) are boxed at most once per Simulator lifetime, larger
// or negative values fall back to a plain (allocating) conversion.
const internCap = 1 << 16

// BoxInt returns v boxed as an `any` without a per-call heap allocation
// when ch is a physical Env: the box is served from the simulator's
// interning table, grown lazily and filled once per distinct value.
// Boxed integers are immutable, so handing the same box to every
// listener — and reusing it across runs of a recycled Simulator — is
// safe. On a virtual channel it falls back to the ordinary conversion,
// so protocol code can call it unconditionally.
func BoxInt(ch Channel, v int) any {
	if e, ok := ch.(*Env); ok {
		return e.sim.boxInt(v)
	}
	return v
}

// boxInt serves v from the interning table. Scheduler goroutine only.
func (s *Simulator) boxInt(v int) any {
	if v < 0 || v >= internCap {
		return v
	}
	if v >= len(s.intBox) {
		newLen := len(s.intBox)
		if newLen == 0 {
			newLen = 256
		}
		for newLen <= v {
			newLen *= 2
		}
		if newLen > internCap {
			newLen = internCap
		}
		grown := make([]any, newLen)
		copy(grown, s.intBox)
		s.intBox = grown
	}
	if s.intBox[v] == nil {
		s.intBox[v] = v
	}
	return s.intBox[v]
}

// simCacheCap bounds a SimCache's MRU list. Sweep cells run many trials
// on one long-lived graph (a guaranteed hit) while some algorithms build
// short-lived derived graphs per trial; a small cap lets the hot graph
// stay resident without the derived ones accumulating.
const simCacheCap = 4

// SimCache reuses Simulators across runs, keyed by graph identity. It is
// NOT safe for concurrent use — keep one per worker goroutine (as
// internal/sweep does) and thread it through Config.Sims; RunDevices
// then serves same-graph runs from the cache instead of rebuilding envs,
// random streams, and scheduler scratch per run.
type SimCache struct {
	sims  []*Simulator // MRU order, most recent first
	stats CacheStats
}

// CacheStats counts a SimCache's lookups. A hit serves the run from a
// resident simulator; a miss pays a full NewSimulator build. Plain
// (non-atomic) counters: the cache itself is single-goroutine, and
// telemetry publishes a copy.
type CacheStats struct {
	SoloHits   uint64
	SoloMisses uint64
}

// Stats returns the cache's lookup counters so far.
func (c *SimCache) Stats() CacheStats { return c.stats }

// get returns the cached Simulator for g, creating and caching it on a
// miss (evicting the least recently used entry beyond the cap).
func (c *SimCache) get(g *graph.Graph) (*Simulator, error) {
	for i, s := range c.sims {
		if s.g == g {
			if i != 0 {
				copy(c.sims[1:i+1], c.sims[:i])
				c.sims[0] = s
			}
			c.stats.SoloHits++
			return s, nil
		}
	}
	c.stats.SoloMisses++
	s, err := NewSimulator(g, Config{Graph: g})
	if err != nil {
		return nil, err
	}
	c.sims = append(c.sims, nil)
	copy(c.sims[1:], c.sims)
	c.sims[0] = s
	if len(c.sims) > simCacheCap {
		c.sims = c.sims[:simCacheCap]
	}
	return s, nil
}

// Len reports the number of cached simulators (for tests).
func (c *SimCache) Len() int { return len(c.sims) }
