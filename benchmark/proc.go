package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// peakRSSMiB reads this process's resident-set high-water mark (VmHWM).
// Every workload runs in its own process, so the peak belongs to it alone.
func peakRSSMiB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kib / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// memMark is a runtime.MemStats reading; since gives the allocation and GC
// activity between two readings, divided per operation by the caller.
type memMark struct{ m runtime.MemStats }

func markMem() *memMark {
	mm := &memMark{}
	runtime.ReadMemStats(&mm.m)
	return mm
}

// since reports the per-layer proc.* metrics accumulated after the mark,
// allocations divided by ops (shots, points or requests).
func (mm *memMark) since(ops int) map[string]float64 {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	n := float64(max(ops, 1))
	return map[string]float64{
		"proc.allocs_per_op":      float64(now.Mallocs-mm.m.Mallocs) / n,
		"proc.alloc_bytes_per_op": float64(now.TotalAlloc-mm.m.TotalAlloc) / n,
		"proc.gc_cycles":          float64(now.NumGC - mm.m.NumGC),
		"proc.gc_pause_ms_total":  float64(now.PauseTotalNs-mm.m.PauseTotalNs) / 1e6,
	}
}

// cacheSize reads one level of cpu0's cache hierarchy from sysfs ("?" when
// the kernel does not expose it): the numbers depend on these sizes.
func cacheSize(level string) string {
	for i := 0; i < 8; i++ {
		dir := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/", i)
		lv, err := os.ReadFile(dir + "level")
		if err != nil {
			break
		}
		typ, _ := os.ReadFile(dir + "type")
		if strings.TrimSpace(string(lv)) == level && strings.TrimSpace(string(typ)) != "Instruction" {
			size, _ := os.ReadFile(dir + "size")
			return strings.TrimSpace(string(size))
		}
	}
	return "?"
}

// machineFacts is the line every run prints first.
func machineFacts() string {
	return fmt.Sprintf("machine: nproc=%d gomaxprocs=%d %s %s/%s L2=%s L3=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH,
		cacheSize("2"), cacheSize("3"))
}
