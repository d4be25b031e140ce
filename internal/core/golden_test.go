package core_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime/debug"
	"slices"
	"testing"

	"tqsim/internal/core"
	"tqsim/internal/fusion"
	"tqsim/internal/noise"
	"tqsim/internal/partition"
	"tqsim/internal/statevec"
	"tqsim/internal/workloads"
)

// planeDigest hashes the IEEE-754 bit patterns of both amplitude planes, re
// first. Any change to the order of floating-point operations inside a gate
// kernel changes some low bit and therefore the digest.
func planeDigest(s *statevec.State) string {
	h := sha256.New()
	var buf [8]byte
	re, im := s.Components()
	for _, plane := range [][]float64{re, im} {
		for _, v := range plane {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenAmplitudeDigests pins "same order of floating-point operations"
// as a test: the final state of each suite circuit, through the plain
// dispatcher and through the fusion backend, must hash to the constants
// below. The constants were produced by this test at commit 98d1f08 (the
// parent of the kernel-enumerator rewrite) and are not to be regenerated to
// make a kernel change pass; a legitimate change of arithmetic order is its
// own change with its own justification. Zeros are hashed as they are: the
// sign of a zero is part of the pinned bits.
func TestGoldenAmplitudeDigests(t *testing.T) {
	golden := []struct {
		circuit, statevec, fusion string
	}{
		{"qpe_n16",
			"14b67be3f558b7b174b154ccf3bc85eb0400c6c33d338b30dd203412da1ea126",
			"549160d48fcc58d0b18d0ed9968290c55dda631402a755c0f901f4015a2f7dc0"},
		{"qpe_n9_0",
			"e5e039ccc40f94ee62453403b4e5368d5764738774fe5916a790c09ece383528",
			"00281226662ae73e79d0243d29e0362a4eb16384b78a1f731d752c0890682ddf"},
		{"qft_n12",
			"1024163e49da6b1b398cc597e27b1da66354a1791ba6f7deb95b96df87c70340",
			"1c63605eafa4269467255ef88992b21914f279410eb56dd08bddc950bbf34885"},
		{"bv_n10",
			"94f3de242b85c9fcadb2103f2a32b425ed10a9adfc74d83d46a8c336b9d5b775",
			"269cc55d15f9e870fb837b31d1c7045afcf1094d4646a128529bf449b47afd3f"},
		{"qaoa_n11",
			"ea6a57c1fba0ad98c28b1f821c0409a25e46f585414d1bbd557a7b59c2f82b0e",
			"2dfa095f4d020cea6de6808781cddd5e5682da493bffef1da1e5c937e55a7cdd"},
		{"adder_n10_0",
			"8e3069ddcb20082474dc4dd0784991109eebc057afc82ff076729467f8839d28",
			"b65d7e97d2b0140cbbcd0d093423de28db8e096a2681b4b18a674d8d7d7fda1b"},
		{"qsc_n12",
			"8ed88893727b730946f9515c9bdb7b5605a5233380d98ba1256c29312db71f6d",
			"7cb75acdfacb8697a91256883ea4b5af917359f86bee330d04a51044c6b38b82"},
		{"qv_n12",
			"a02b6d83721534a84d1c921003c9228e12e2256fef1514c420fd2f2fc39bd7d0",
			"8a3072c2555274e69d964fec833f21e487d8fbbc8aa3c8b2a80dc8fe9dee091c"},
		{"mul_n13",
			"07c7f6f833a39512149ff0dec68d5fd1017a8ad67693d8f29ac5fa1e6001989f",
			"8e562023f67234fb52c7f4bf8888b1d7fd7b6741d65f7281cfefe0478d086c08"},
	}
	for _, g := range golden {
		c := workloads.ByName(g.circuit)
		if c == nil {
			t.Fatalf("suite circuit %q missing", g.circuit)
		}
		plain := statevec.NewZero(c.NumQubits)
		plain.ApplyAll(c.Gates)
		if got := planeDigest(plain); got != g.statevec {
			t.Errorf("%s statevec digest %s, want %s", g.circuit, got, g.statevec)
		}
		fused := statevec.NewZero(c.NumQubits)
		b := fusion.New()
		for _, gt := range c.Gates {
			b.Apply(fused, gt)
		}
		b.Flush(fused)
		if got := planeDigest(fused); got != g.fusion {
			t.Errorf("%s fusion digest %s, want %s", g.circuit, got, g.fusion)
		}
	}
}

// histogramDigest hashes a histogram as its "outcome:count" lines in
// ascending outcome order.
func histogramDigest(counts map[uint64]int) string {
	keys := make([]uint64, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%d:%d\n", k, counts[k])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// raceDetector reports whether the test binary was built with -race (the
// toolchain records the flag in the binary's build settings).
func raceDetector() bool {
	info, _ := debug.ReadBuildInfo()
	return info != nil && slices.Contains(info.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}

// TestGoldenHistogramDigests pins the executor's sampled outcomes against
// the parent of the quiet-segment-reuse change, not only against a sibling
// engine in the same tree: the constants were produced by this test at
// commit 6fb73ce, where every run walked every node, and are not to be
// regenerated to make an executor change pass. The inputs are the repository
// benchmark's — tree_wide's at its full 150 shots (the plan is (61,3); fewer
// shots plan flat), tree_narrow's at a tenth, both parallelism-check trees,
// sweep_grid's four noise points — plus one deeper tree and one flat
// (96) plan, RunBackend's shape. A nil structure means the DCP plan at the
// default options; each case runs serially and on two workers. Under the race
// detector the 16-qubit cases are skipped: a digest comparison gains nothing
// from it, the smaller cases walk the same concurrent code, and 1 MiB states
// cost two minutes there.
func TestGoldenHistogramDigests(t *testing.T) {
	golden := []struct {
		circuit   string
		m         *noise.Model
		shots     int
		structure []int // explicit arities; nil plans with DCP at shots
		seed      uint64
		digest    string
	}{
		{"qpe_n16", noise.NewDepolarizing(0.0002, 0.001), 150, nil, 1,
			"9eb4c85aea011967d29f120cca88f611d5b5853704cc04865af387165a3b1711"},
		{"qpe_n16", noise.NewDepolarizing(0.0002, 0.001), 0, []int{8, 3}, 1,
			"007334b5210baa5d644d591c07e6c7b93b3f0e25b7e6171411ce8e06a465f521"},
		{"qpe_n9_0", noise.NewSycamore(), 2000, nil, 1,
			"577143825041ba1533e30c72be286e1f062dd39914c33a6cd9500a414adaa455"},
		{"qpe_n9_0", noise.NewSycamore(), 0, []int{300, 3, 2}, 1,
			"76a5f537936a9c967196bc365569cf66c6ce0f1c542710933f93c23688577850"},
		{"qft_n12", noise.NewDepolarizing(0.0002, 0.001), 250, nil, 1,
			"55653166d6aced5bc175fd60d06c378c93081a579c00a6be41fe1f2c97ae8251"},
		{"qft_n12", noise.NewDepolarizing(0.0005, 0.002), 250, nil, 2,
			"0b20d9695a995ac0308edc20f11d0c48bcf1568543dc2399a7098fb45b5d788c"},
		{"qft_n12", noise.NewDepolarizing(0.001, 0.005), 250, nil, 3,
			"6512e09be1058c4f3fd8645a5f79952b40c4c77c731ad44e059c1e68425fec7d"},
		{"qft_n12", noise.NewDepolarizing(0.002, 0.008), 250, nil, 4,
			"56e35fe963e22e069095baf73233a1bdb397292b3db7dc11ff965a02b6e1e868"},
		{"qft_n12", noise.NewDepolarizing(0.001, 0.005), 0, []int{16, 4, 2}, 6,
			"80ae816ee64970e70ca8fd9b6d641c139c2544c5c3bff462b4b25372de017be4"},
		{"qft_n12", noise.NewDepolarizing(0.001, 0.005), 0, []int{96}, 5,
			"fe3edef6a04984eee4fc03273d287614d950735352ab0e7598fb65c3e387b717"},
	}
	for _, g := range golden {
		c := workloads.ByName(g.circuit)
		if c == nil {
			t.Fatalf("suite circuit %q missing", g.circuit)
		}
		if raceDetector() && c.NumQubits >= 16 {
			continue
		}
		plan := partition.Dynamic(c, g.m, g.shots, partition.DCPOptions{})
		if g.structure != nil {
			plan = partition.FromStructure(c, g.structure)
		}
		for _, workers := range []int{1, 2} {
			res, err := (&core.Executor{Noise: g.m, Seed: g.seed, Parallelism: workers}).Run(plan)
			if err != nil {
				t.Fatal(err)
			}
			if got := histogramDigest(res.Counts); got != g.digest {
				t.Errorf("%s %s seed %d on %d workers: histogram digest %s, want %s",
					g.circuit, plan.Structure(), g.seed, workers, got, g.digest)
			}
		}
	}
}
