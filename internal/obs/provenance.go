package obs

import (
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// Provenance identifies the build and machine a run executed on, so a
// dmebench record (or a trace file) stays interpretable after the fact:
// a wall-clock regression means nothing without knowing the commit, the core
// count, and the CPU the number came from.
type Provenance struct {
	GitSHA     string `json:"git_sha,omitempty"`
	GitDirty   bool   `json:"git_dirty,omitempty"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPUModel   string `json:"cpu_model,omitempty"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	Timestamp  string `json:"timestamp"`
}

// CollectProvenance gathers the current process's run provenance. The git
// SHA comes from the binary's embedded VCS stamp when present (`go build` of
// a repo checkout) and falls back to asking `git` directly, which covers
// `go run` and test binaries; it is "" when neither source is available.
func CollectProvenance() *Provenance {
	p := &Provenance{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		CPUModel:   cpuModel(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.GitSHA = s.Value
			case "vcs.modified":
				p.GitDirty = s.Value == "true"
			}
		}
	}
	if p.GitSHA == "" {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			p.GitSHA = strings.TrimSpace(string(out))
		}
	}
	return p
}

// cpuModel returns the CPU model string ("" when undeterminable). Linux-only
// by design: benchmark records and traces are produced on Linux.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			if _, val, ok := strings.Cut(name, ":"); ok {
				return strings.TrimSpace(val)
			}
		}
	}
	return ""
}
