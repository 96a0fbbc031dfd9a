package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"syscall"
)

// pinned holds the outputs a correct system produces for one row of the
// size table: they depend on the sizes and on nothing else (the query
// checksums also on the default seed, 1). When a run reports a mismatch it
// prints the value it got.
type pinned struct {
	EvalDigest     string            `json:"eval_digest"` // sha256 of dcpieval's standard output
	EvalSims       int               `json:"eval_sims"`   // simulations of a cold pass
	EvalDups       int               `json:"eval_dups"`   // duplicate requests served from memory
	SimInsts       uint64            `json:"sim_insts"`   // totals over the ledger's simulations
	SimCycles      uint64            `json:"sim_cycles"`
	SimSamples     uint64            `json:"sim_samples"`
	QueryChecksums map[string]string `json:"query_checksums"` // per class, first pass, seed 1
}

//go:embed testdata/pinned.json
var pinnedJSON []byte

func readPinned(size string) (pinned, error) {
	var all map[string]pinned
	if err := json.Unmarshal(pinnedJSON, &all); err != nil {
		return pinned{}, fmt.Errorf("testdata/pinned.json: %w", err)
	}
	p, ok := all[size]
	if !ok {
		return pinned{}, fmt.Errorf("testdata/pinned.json has no entry for size %q", size)
	}
	return p, nil
}

// fsType names the file system under dir, because what a durable write
// costs there shapes the fleet workloads.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown fs"
	}
	switch st.Type {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext2/3/4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("fs type %#x", st.Type)
}
