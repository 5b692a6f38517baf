package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// The benchmark runs on shared virtual machines whose speed for cache- and
// allocation-heavy code drifts by up to 45% over minutes, with neighbours'
// load, whatever the benchmark does. A run cannot wait for a quiet host, so
// it measures the host's speed while it runs: it times a fixed reference
// kernel between calls and divides every reported time by the run's host
// slowdown (the kernel's median time over refKernelMS).
//
// The kernel runs in a child process of its own, so it shares no heap and no
// garbage collector with the engine: how much the engine allocates or keeps
// live cannot change the kernel's time. Before each sample the run also
// finishes its own garbage collection (outside every timer), so no background
// marking of the engine's heap competes with the kernel for the cores. A
// change that makes the engine faster therefore moves the normalised times
// exactly as it moves wall time on a steady host.

// refKernelMS is the reference kernel's median time on a quiet 2-core Intel
// Xeon virtual machine. Normalised times are wall times on that host.
const refKernelMS = 30.0

// hostKernelEnv, set to 1 in a process's environment, makes the benchmark
// binary (or its test binary) serve reference-kernel samples on its standard
// input and output instead of running.
const hostKernelEnv = "PERF_HOST_KERNEL"

// kernelOut keeps the kernel's results live.
var kernelOut uint64

// refKernel does fixed work of the kinds the engine does most: map updates,
// sorting, allocation and scattered access to a buffer beyond the per-core
// caches.
func refKernel(buf []byte) {
	x := uint64(12345)
	for r := 0; r < 4; r++ {
		m := make(map[int32]float64)
		xs := make([]float64, 1<<15)
		for i := range xs {
			x ^= x << 13 // xorshift64
			x ^= x >> 7
			x ^= x << 17
			xs[i] = float64(x>>11) / (1 << 53)
			m[int32(x%60000)] += xs[i]
			buf[(x>>20)%uint64(len(buf))]++
		}
		slices.Sort(xs)
		kernelOut += uint64(len(m)) + uint64(buf[r])
	}
}

// serveHostKernel runs the reference kernel once for every byte read from in
// and writes the kernel's time in nanoseconds to out, one line each, until in
// is closed. Two untimed runs first fault the buffer in and grow the heap, so
// that the first sample costs what later ones do.
func serveHostKernel(in io.Reader, out io.Writer) error {
	r, w := bufio.NewReader(in), bufio.NewWriter(out)
	buf := make([]byte, 4<<20)
	refKernel(buf)
	refKernel(buf)
	for {
		if _, err := r.ReadByte(); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		t0 := time.Now()
		refKernel(buf)
		fmt.Fprintln(w, time.Since(t0).Nanoseconds())
		if err := w.Flush(); err != nil {
			return err
		}
	}
}

// hostProbe is the child process that runs the reference kernel.
type hostProbe struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
}

func startHostProbe() (*hostProbe, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), hostKernelEnv+"=1")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return &hostProbe{cmd: cmd, in: in, out: bufio.NewReader(out)}, nil
}

// sample times the kernel once, in ms.
func (p *hostProbe) sample() (float64, error) {
	if _, err := p.in.Write([]byte{1}); err != nil {
		return 0, err
	}
	line, err := p.out.ReadString('\n')
	if err != nil {
		return 0, err
	}
	ns, err := strconv.ParseInt(strings.TrimSpace(line), 10, 64)
	return float64(ns) / 1e6, err
}

// stop ends the child process and waits for it.
func (p *hostProbe) stop() error {
	err := p.in.Close()
	if e := p.cmd.Wait(); err == nil {
		err = e
	}
	return err
}

// runMeter measures what every workload measures the same way over the
// passes of a run: the host's speed, and each complete pass's peak memory.
type runMeter struct {
	probe    *hostProbe
	kernelMS []float64
	rssMB    []float64
	err      error // the last failure to measure either
}

// hostSamplesPerCall is how many kernel samples a synthesis workload takes
// before each call. One sample differs from the next by about 20% (IQR), so
// the slowdown is the median of many: about 50 in a run.
const hostSamplesPerCall = 3

// sampleHost finishes the run's garbage collection, then times the reference
// kernel n times.
func (m *runMeter) sampleHost(n int) {
	if m.probe == nil {
		p, err := startHostProbe()
		if err != nil {
			m.err = fmt.Errorf("reference kernel: %w", err)
			return
		}
		m.probe = p
	}
	runtime.GC()
	for k := 0; k < n; k++ {
		ms, err := m.probe.sample()
		if err != nil {
			m.err = fmt.Errorf("reference kernel: %w", err)
			return
		}
		m.kernelMS = append(m.kernelMS, ms)
	}
}

// stop ends the reference kernel's process, if one is running.
func (m *runMeter) stop() {
	if m.probe == nil {
		return
	}
	if err := m.probe.stop(); err != nil {
		m.err = fmt.Errorf("reference kernel: %w", err)
	}
	m.probe = nil
}

// slowdown is how much slower than the reference host this run's host was.
func (m *runMeter) slowdown() float64 {
	if len(m.kernelMS) == 0 {
		m.sampleHost(hostSamplesPerCall)
	}
	return median(m.kernelMS) / refKernelMS
}

// startPass and endPass bracket one complete pass over the workload.
func (m *runMeter) startPass() {
	if err := resetPeakRSS(); err != nil {
		m.err = fmt.Errorf("peak memory: %w", err)
	}
}

func (m *runMeter) endPass() {
	v, err := peakRSSMB()
	if err != nil {
		m.err = fmt.Errorf("peak memory: %w", err)
		return
	}
	m.rssMB = append(m.rssMB, v)
}

// addCommon stops the reference kernel and adds the end-to-end metrics every
// workload reports the same way: the median set-up time, normalised, and the
// median of the passes' peak memory.
func (m *runMeter) addCommon(rep *report, setupS float64) {
	slow := m.slowdown()
	m.stop()
	if m.err != nil {
		rep.problem("%v", m.err)
	}
	rep.add("setup_s", "s", setupS/slow, fmt.Sprintf("median of the run's set-ups; %.4g s of wall time", setupS))
	rep.add("peak_rss_mb", "MB", median(m.rssMB), fmt.Sprintf("median over %d passes", len(m.rssMB)))
	rep.info("host slowdown %.4g: median of %d reference-kernel samples over %g ms; times are divided by it", slow, len(m.kernelMS), refKernelMS)
}

// resetPeakRSS restarts the kernel's count of this process's peak resident
// set (Linux 4.0 and later). Without it peakRSSMB would report the peak since
// the process started, set-up included, so a failure is an error.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the peak resident set size of this process, in MiB,
// since the last resetPeakRSS.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("/proc/self/status has no VmHWM line")
}
