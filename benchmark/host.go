package main

import (
	"os"
	"runtime"
)

// hostBlock records where a number came from: CPU count, GOMAXPROCS, Go
// version, commit and seed. The commit comes from the wrapper (git HEAD
// when the checkout is a repository, otherwise "unknown").
func hostBlock(seed uint64) map[string]any {
	commit := os.Getenv("BENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"commit":     commit,
		"seed":       seed,
	}
}
