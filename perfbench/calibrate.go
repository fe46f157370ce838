package main

import (
	"runtime"
	"sync"
	"time"
)

// calibrationTables are the per-worker tables calibrate reads and writes,
// allocated once so that calibrating measures no page faults.
var calibrationTables = sync.OnceValue(func() [][]uint64 {
	t := make([][]uint64, workers)
	for i := range t {
		t[i] = make([]uint64, 1<<20) // 8 MiB: beyond the private caches
	}
	return t
})

// referenceCalibration is calibrate's time on the reference host (a
// 2-vCPU Intel Xeon VM, go1.24) in its fast phase. End-to-end times are
// reported scaled to it: raw time x referenceCalibration / calibration.
const referenceCalibration = 0.020

// calibrationSink keeps the calibration's result alive.
var calibrationSink uint64

// calibrate times a fixed computation that shares no code with the
// program, on the workloads' worker count: a pseudo-random walk over an
// 8 MiB table per worker with a small allocation every eighth step — the
// cache misses and garbage-collector work the simulator's trials also
// do. Its time tracks how fast the host runs such code at the moment.
func calibrate() float64 {
	tables := calibrationTables()
	runtime.GC()
	t0 := time.Now()
	var wg sync.WaitGroup
	sums := make([]uint64, workers)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tab := tables[w]
			mask := uint64(len(tab) - 1)
			var keep [256][]byte
			x, acc := uint64(w+1), uint64(0)
			for i := 0; i < 2_000_000; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				acc += tab[x&mask]
				tab[(x>>24)&mask] = acc
				if i&7 == 0 {
					b := make([]byte, 64+int(x&63))
					b[0] = byte(acc)
					keep[i>>3&255] = b
				}
			}
			sums[w] = acc + uint64(keep[x&255][0])
		}()
	}
	wg.Wait()
	d := time.Since(t0).Seconds()
	for _, s := range sums {
		calibrationSink += s
	}
	return d
}
