package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"

	"repro/internal/telemetry"
)

// hostInfo records the machine, toolchain and code a result comes from,
// with the filesystem holding the checkpoint journals in dir.
func hostInfo(dir string) host {
	return host{
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Workers:     workers,
		GoVersion:   runtime.Version(),
		CPU:         cpuModel(),
		JournalFS:   fsType(dir),
		CodeVersion: telemetry.CodeVersion(),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
