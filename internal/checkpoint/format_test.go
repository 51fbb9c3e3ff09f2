package checkpoint_test

import (
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/charmm"
	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/costmodel"
	"repro/internal/dsmc"
)

// TestFormatPinned pins the bytes a small CHARMM and a small DSMC run write
// at 2 ranks, under the file names a restore looks for: each shard's
// whole-file CRC and the manifest image. A record renamed, reordered,
// retyped or dropped changes them, and with them every checkpoint an older
// binary left behind.
func TestFormatPinned(t *testing.T) {
	for _, c := range []struct {
		app      string
		run      func(p *comm.Proc, base string)
		shards   [2]uint32
		manifest string
	}{
		{"charmm", func(p *comm.Proc, base string) {
			cfg := charmm.ConfigForAtoms(300)
			cfg.Steps, cfg.NBEvery, cfg.CheckpointEvery, cfg.CheckpointDir = 3, 2, 3, base
			charmm.Run(p, cfg)
		}, [2]uint32{0x03921e13, 0x1a2a6055}, "4348414f53434b310100000001050000000300617070000600000000000000636861726d6d05fb68fb06006e72616e6b730201000000000000000200000000000000c46ad5bd0400737465700201000000000000000300000000000000eb48b5c801006e0201000000000000002c01000000000000e907aee608007368617264637263020200000000000000131e92030000000055602a1a00000000a0d042a5"},
		{"dsmc", func(p *comm.Proc, base string) {
			cfg := dsmc.Default2D(8)
			cfg.NMols, cfg.Steps, cfg.CheckpointEvery, cfg.CheckpointDir = 256, 3, 3, base
			dsmc.Run(p, cfg)
		}, [2]uint32{0xbb3a9268, 0xc2bf1272}, "4348414f53434b31010000000105000000030061707000040000000000000064736d63facf9a1306006e72616e6b730201000000000000000200000000000000c46ad5bd0400737465700201000000000000000300000000000000eb48b5c801006e0201000000000000004000000000000000a9b99dc70800736861726463726302020000000000000068923abb000000007212bfc200000000279ab9d7"},
	} {
		t.Run(c.app, func(t *testing.T) {
			base := t.TempDir()
			comm.Run(2, costmodel.IPSC860(), func(p *comm.Proc) { c.run(p, base) })
			dir := checkpoint.StepDir(base, 3)
			for r, want := range c.shards {
				b, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("shard-%04d.ckpt", r)))
				if err != nil {
					t.Fatal(err)
				}
				if got := crc32.ChecksumIEEE(b); got != want {
					t.Errorf("shard %d CRC %#08x, pinned %#08x", r, got, want)
				}
			}
			b, err := os.ReadFile(filepath.Join(dir, "MANIFEST.ckpt"))
			if err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(b); got != c.manifest {
				t.Errorf("manifest %s, pinned %s", got, c.manifest)
			}
		})
	}
}
