package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// stamp identifies what was measured and where.
type stamp struct {
	Commit       string  `json:"commit"`
	SourceSHA256 string  `json:"source_sha256"`
	GoVersion    string  `json:"go_version"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	NProc        int     `json:"nproc"`
	CPUModel     string  `json:"cpu_model"`
	Seed         int64   `json:"seed"`
	TPCHSF       float64 `json:"tpch_sf,omitempty"`
	SSBSF        float64 `json:"ssb_sf,omitempty"`
	PMU          string  `json:"pmu"`
}

func newStamp(root string, seed int64, tpchSF, ssbSF float64) stamp {
	return stamp{
		Commit:       commitOf(root),
		SourceSHA256: sourceDigest(root),
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NProc:        runtime.NumCPU(),
		CPUModel:     cpuModel(),
		Seed:         seed,
		TPCHSF:       tpchSF,
		SSBSF:        ssbSF,
		PMU:          pmuStatus(),
	}
}

// commitOf is the checked-out commit, when the tree is a git work tree.
// An exported tree has none; sourceDigest still identifies the code.
func commitOf(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unavailable: not a git work tree"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unavailable: not a git work tree"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and module file of the program and
// the benchmark, in path order, so two runs of the same code carry the
// same digest with or without git.
func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		h.Write([]byte(rel))
		h.Write([]byte{0})
		h.Write(raw)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unavailable: " + err.Error()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unavailable: no model name in /proc/cpuinfo"
}

// pmuStatus says whether hardware performance counters exist. Without a
// cpu event source the benchmark reports no cycle or cache-miss counts at
// all rather than modeled ones.
func pmuStatus() string {
	const dir = "/sys/bus/event_source/devices"
	if _, err := os.Stat(filepath.Join(dir, "cpu")); err == nil {
		return "available (not read by this benchmark)"
	}
	return "unavailable: no cpu device under " + dir
}
