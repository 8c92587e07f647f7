package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// host is the fingerprint printed with every result, so that runs are
// compared only on like hosts.
type host struct {
	Go         string `json:"go"`
	OS         string `json:"goos"`
	Arch       string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
}

func fingerprint() host {
	return host{
		Go:         runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPU:        procField("/proc/cpuinfo", "model name"),
	}
}

// procField returns the value of the first "key: value" line of a /proc
// file, or "unknown".
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMiB returns the process's peak resident set size (VmHWM) in
// MiB, or 0 where /proc is unavailable.
func peakRSSMiB() float64 {
	v := procField("/proc/self/status", "VmHWM")
	kb, err := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64)
	if err != nil {
		return 0
	}
	return kb / 1024
}
