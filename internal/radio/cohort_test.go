package radio

import (
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/graph"
)

// requestLog records, per slot, every device that asked for a channel
// action there, in the order the requests were made.
type requestLog map[uint64][]int32

// scriptProc plays a fixed action list, logging each request, then halts.
type scriptProc struct {
	dev  int32
	acts []Action
	log  requestLog
}

func (p *scriptProc) Step(ch Channel, fb Feedback) Action {
	if len(p.acts) == 0 {
		return Halt()
	}
	a := p.acts[0]
	p.acts = p.acts[1:]
	p.log[a.Slot] = append(p.log[a.Slot], p.dev)
	return a
}

// scripted builds one scriptProc per action list, all logging into log.
func scripted(log requestLog, acts [][]Action) []Device {
	devs := make([]Device, len(acts))
	for v := range acts {
		devs[v].Proc = &scriptProc{dev: int32(v), acts: acts[v], log: log}
	}
	return devs
}

// randProc takes up to steps random actions on a clock shared in spirit
// with its peers: half its requests land on the next multiple of 4, so
// devices fall into and out of lockstep cohorts, the rest a few slots
// ahead. It sometimes sleeps first and sometimes halts early.
type randProc struct {
	dev   int32
	now   uint64
	steps int
	log   requestLog
}

func (p *randProc) Step(ch Channel, fb Feedback) Action {
	r := ch.Rand()
	if p.steps == 0 || r.IntN(40) == 0 {
		return Halt()
	}
	if r.IntN(8) == 0 {
		p.now += uint64(1 + r.IntN(5))
		return Sleep(p.now)
	}
	p.steps--
	if r.IntN(2) == 0 {
		p.now = p.now/4*4 + 4
	} else {
		p.now += uint64(1 + r.IntN(6))
	}
	p.log[p.now] = append(p.log[p.now], p.dev)
	switch r.IntN(3) {
	case 0:
		return Transmit(p.now, BoxInt(ch, int(p.dev)))
	case 1:
		return Listen(p.now)
	default:
		return TransmitListen(p.now, BoxInt(ch, int(p.dev)))
	}
}

// checkCohortOrder runs devs under cfg on sim and asserts the engine's
// release order: the trace visits slots in ascending order, and each
// slot's traced devices are exactly that slot's requesters, minus any a
// crash fault removed there, in ascending device order. It returns the
// run's result.
func checkCohortOrder(t *testing.T, sim *Simulator, cfg Config, devs []Device, log requestLog) *Result {
	t.Helper()
	traced := map[uint64][]int32{}
	var last uint64
	cfg.Trace = func(ev Event) {
		if ev.Slot < last {
			t.Fatalf("seed %d: event at slot %d after slot %d", cfg.Seed, ev.Slot, last)
		}
		last = ev.Slot
		devsAt := traced[ev.Slot]
		// A TransmitListen device emits its transmit and its receive
		// back to back; count it once.
		if n := len(devsAt); n == 0 || devsAt[n-1] != int32(ev.Dev) {
			traced[ev.Slot] = append(devsAt, int32(ev.Dev))
		}
	}
	res, err := sim.run(cfg, devs)
	if err != nil {
		t.Fatal(err)
	}
	plan := cfg.Fault.Plan(cfg.Seed)
	crashes := plan.Kind() == fault.Crash
	want := map[uint64][]int32{}
	for slot, reqs := range log {
		for _, v := range reqs {
			if crashes && plan.Fires(v, slot) {
				continue
			}
			want[slot] = append(want[slot], v)
		}
		slices.Sort(want[slot])
	}
	for slot, got := range traced {
		if !slices.Equal(got, want[slot]) {
			t.Fatalf("seed %d slot %d: traced devices %v, want requesters %v", cfg.Seed, slot, got, want[slot])
		}
	}
	for slot, w := range want {
		if _, ok := traced[slot]; !ok {
			t.Fatalf("seed %d slot %d: requesters %v never traced", cfg.Seed, slot, w)
		}
	}
	return res
}

// TestCohortRunOrder pins the run queue's release order — (slot, then
// device index), the order the golden trace fixes — on the cases that
// stress it: runs from different rounds interleaving on one slot, a
// staggered hub beside lockstep leaves, halts splitting a lockstep
// stretch, crash-fault compaction, and random mixes on G(n,p).
func TestCohortRunOrder(t *testing.T) {
	t.Run("interleaved", func(t *testing.T) {
		// Devices 1 and 5 meet at slot 1 and then post slot 10 in one
		// round as the run [1 5]; device 3 posts slot 10 a round later,
		// after its slot-5 action, as the run [3]. Popping slot 10 must
		// sort the two runs into 1, 3, 5.
		g := graph.Clique(6)
		log := requestLog{}
		devs := scripted(log, [][]Action{
			0: nil,
			1: {Listen(1), Listen(10)},
			2: nil,
			3: {Listen(5), TransmitListen(10, "c")},
			4: nil,
			5: {Transmit(1, "a"), Transmit(10, "b")},
		})
		sim, err := NewSimulator(g, Config{Graph: g, Model: CD})
		if err != nil {
			t.Fatal(err)
		}
		checkCohortOrder(t, sim, Config{Graph: g, Model: CD, Seed: 1}, devs, log)
		if got := log[10]; !slices.Equal(got, []int32{1, 5, 3}) {
			t.Fatalf("slot-10 request order %v, want [1 5 3]", got)
		}
	})

	t.Run("hub-and-lockstep-leaves", func(t *testing.T) {
		// The Theorem 16 star shape: the leaves listen every fourth slot
		// in lockstep, the hub transmits once per round on a staggered
		// slot that meets the leaves' slot every fourth round.
		const n, rounds = 9, 12
		g := graph.Star(n)
		acts := make([][]Action, n)
		for k := uint64(0); k < rounds; k++ {
			acts[0] = append(acts[0], Transmit(4*k+1+k%4, int(k)))
			for v := 1; v < n; v++ {
				acts[v] = append(acts[v], Listen(4*k+4))
			}
		}
		log := requestLog{}
		sim, err := NewSimulator(g, Config{Graph: g, Model: CD})
		if err != nil {
			t.Fatal(err)
		}
		res := checkCohortOrder(t, sim, Config{Graph: g, Model: CD, Seed: 1}, scripted(log, acts), log)
		if res.Slots != 4*rounds {
			t.Fatalf("run ended at slot %d, want %d", res.Slots, 4*rounds)
		}
	})

	t.Run("halts-and-crashes", func(t *testing.T) {
		// Devices 1..n-1 listen or transmit in lockstep on even slots,
		// odd ones halting part-way, so later rounds queue stretches
		// with holes; device 0 acts alone on odd slots, so every round
		// queues runs rather than taking the one-run shortcut. Crash
		// faults then compact cohorts mid-stretch.
		const n, rounds = 12, 30
		g := graph.Clique(n)
		sim, err := NewSimulator(g, Config{Graph: g, Model: CD})
		if err != nil {
			t.Fatal(err)
		}
		crashed := 0
		for seed := uint64(1); seed <= 20; seed++ {
			acts := make([][]Action, n)
			for v := 0; v < n; v++ {
				steps := rounds
				if v%2 == 1 {
					steps = 2 + v
				}
				for k := 0; k < steps; k++ {
					slot := uint64(2*k + 2)
					if v == 0 {
						slot--
					}
					if (v+k)%5 == 0 {
						acts[v] = append(acts[v], Transmit(slot, v))
					} else {
						acts[v] = append(acts[v], Listen(slot))
					}
				}
			}
			log := requestLog{}
			cfg := Config{Graph: g, Model: CD, Seed: seed,
				Fault: fault.Spec{Kind: fault.Crash, Rate: 0.02}}
			res := checkCohortOrder(t, sim, cfg, scripted(log, acts), log)
			crashed += res.FaultCrashes
		}
		if crashed == 0 {
			t.Fatal("no crash fault fired; the compaction case went unexercised")
		}
	})

	t.Run("random-gnp", func(t *testing.T) {
		g := graph.GNP(24, 0.25, 3)
		for _, model := range []Model{CD, Local} {
			t.Run(model.String(), func(t *testing.T) {
				sim, err := NewSimulator(g, Config{Graph: g, Model: model})
				if err != nil {
					t.Fatal(err)
				}
				for seed := uint64(1); seed <= 200; seed++ {
					log := requestLog{}
					devs := make([]Device, g.N())
					for v := range devs {
						devs[v].Proc = &randProc{dev: int32(v), steps: 30, log: log}
					}
					checkCohortOrder(t, sim, Config{Graph: g, Model: model, Seed: seed}, devs, log)
				}
			})
		}
	})
}
