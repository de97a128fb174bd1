package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// fingerprint identifies the host, toolchain and code a record was made
// with, so numbers from different hosts are never compared silently.
type fingerprint struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	// GitCommit is read from .git when the checkout has one; SourceSHA256
	// hashes every Go source and go.mod under the checkout, so a record
	// names its code even when the checkout is not a git repository.
	GitCommit    string `json:"git_commit"`
	SourceSHA256 string `json:"source_sha256"`
	Workload     string `json:"workload"`
	Seed         int64  `json:"seed"`
	Traced       bool   `json:"traced"`
}

func (f fingerprint) String() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s kernel=%s commit=%s src=%.12s workload=%s seed=%d traced=%v",
		f.CPUModel, f.NumCPU, f.GOMAXPROCS, f.GoVersion, f.Kernel, f.GitCommit, f.SourceSHA256, f.Workload, f.Seed, f.Traced)
}

func hostFingerprint(seed int64, workload string, traced bool) fingerprint {
	return fingerprint{
		CPUModel:     cpuModel(),
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Kernel:       kernel(),
		GitCommit:    gitCommit("."),
		SourceSHA256: sourceDigest("."),
		Workload:     workload,
		Seed:         seed,
		Traced:       traced,
	}
}

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

func kernel() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	var b strings.Builder
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b.WriteByte(byte(c))
	}
	return b.String()
}

// gitCommit resolves HEAD from the .git directory under root, or returns
// "none" when root is not a git checkout.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	h := strings.TrimSpace(string(head))
	ref, isRef := strings.CutPrefix(h, "ref: ")
	if !isRef {
		return h
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unresolved " + ref
}

// sourceDigest hashes the path and content of every .go and go.mod file
// under root, skipping build output and VCS metadata.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
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
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\n", p)
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}
