package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// hostFacts records the machine a run measured: the "recorded machine"
// every performance claim names.
func hostFacts(rc runConfig) map[string]any {
	commit, modified := vcsState()
	return map[string]any{
		"nproc":      rc.nproc,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goarch":     runtime.GOARCH,
		"goos":       runtime.GOOS,
		"cpu":        cpuModel(),
		"seed":       rc.seed,
		"commit":     commit,
		"modified":   modified,
		"seconds":    rc.measure.Seconds(),
		"traced":     rc.trace,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	s := bufio.NewScanner(f)
	for s.Scan() {
		if k, v, ok := strings.Cut(s.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// vcsState returns the revision the binary was built from and whether
// the tree had uncommitted changes, as go build stamped them; "unknown"
// when the sources were not in a git checkout.
func vcsState() (revision, modified string) {
	revision, modified = "unknown", "unknown"
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return revision, modified
	}
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			revision = s.Value
		case "vcs.modified":
			modified = s.Value
		}
	}
	return revision, modified
}
