package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"circus/internal/udptrans"
)

// quantile returns the q-quantile (0..1) of xs by nearest rank; xs need
// not be sorted and is left untouched. An empty input gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, or 0 when b is 0: a layer the workload never crosses
// reports 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuJiffies reads the aggregate "cpu" line of /proc/stat: the total of
// every column, and the steal column alone.
func cpuJiffies() (total, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i, s := range f[1:] {
		v, _ := strconv.ParseFloat(s, 64)
		if i < 8 { // user..steal; guest time is already inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// udpCounters reads OutDatagrams and RcvbufErrors from the Udp table of
// /proc/net/snmp (the network namespace's totals).
func udpCounters() (out, rcvbufErrs float64) {
	b, err := os.ReadFile("/proc/net/snmp")
	if err != nil {
		return 0, 0
	}
	var names []string
	for _, line := range strings.Split(string(b), "\n") {
		if !strings.HasPrefix(line, "Udp: ") {
			continue
		}
		f := strings.Fields(line)[1:]
		if names == nil {
			names = f
			continue
		}
		for i, name := range names {
			if i >= len(f) {
				break
			}
			v, _ := strconv.ParseFloat(f[i], 64)
			switch name {
			case "OutDatagrams":
				out = v
			case "RcvbufErrors":
				rcvbufErrs = v
			}
		}
		break
	}
	return out, rcvbufErrs
}

// procSample is the process- and host-level counters one phase is
// measured between.
type procSample struct {
	cpu         time.Duration
	jiffies     float64
	steal       float64
	mallocs     float64
	allocBytes  float64
	gcCPU       float64 // seconds
	totalCPU    float64 // seconds, as the Go runtime accounts it
	udpOut      float64
	udpRcvbufEr float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func sampleProc() procSample {
	s := procSample{cpu: cpuTime()}
	s.jiffies, s.steal = cpuJiffies()
	s.udpOut, s.udpRcvbufEr = udpCounters()
	rs := append([]metrics.Sample(nil), runtimeSamples...)
	metrics.Read(rs)
	val := func(i int) float64 {
		switch rs[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(rs[i].Value.Uint64())
		case metrics.KindFloat64:
			return rs[i].Value.Float64()
		}
		return 0
	}
	s.mallocs, s.allocBytes, s.gcCPU, s.totalCPU = val(0), val(1), val(2), val(3)
	return s
}

// stealFrac is the share of all CPU time on the host that the
// hypervisor stole between two samples.
func stealFrac(a, b procSample) float64 { return ratio(b.steal-a.steal, b.jiffies-a.jiffies) }

// hostRecord describes the machine a result was measured on.
func hostRecord() map[string]any {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"kernel":     strings.TrimSpace(string(kernel)),
		"go":         runtime.Version(),
		"io_uring":   ioUringGranted(),
	}
}

// ioUringGranted binds one sharded UDP endpoint and reports whether the
// kernel let it send through io_uring.
func ioUringGranted() bool {
	ep, err := udptrans.ListenSharded(0, 1)
	if err != nil {
		return false
	}
	defer ep.Close()
	return ep.UsingIOUring()
}
