// Command wsinspect dumps the on-disk artifacts of the system: the
// snapshot memory image (.snapmem) and the three working-set formats
// (SnapBPF offsets, REAP/Faast paged, FaaSnap regions). The format is
// auto-detected from the file's magic number.
//
// Usage:
//
//	wsinspect file.snapmem
//	wsinspect -groups ws.snapbpf-ws      # also list every group
//	wsinspect -gen json out/             # generate example artifacts
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"snapbpf/internal/blockdev"
	"snapbpf/internal/core"
	"snapbpf/internal/prefetch"
	"snapbpf/internal/prefetch/faasnap"
	"snapbpf/internal/prefetch/reap"
	"snapbpf/internal/sim"
	"snapbpf/internal/snapshot"
	"snapbpf/internal/trace"
	"snapbpf/internal/units"
	"snapbpf/internal/vmm"
	"snapbpf/internal/workload"
)

func main() {
	var (
		groups = flag.Bool("groups", false, "list every working-set group/page")
		gen    = flag.String("gen", "", "generate artifacts for the named function into the directory argument")
	)
	flag.Parse()

	if *gen != "" {
		if flag.NArg() != 1 {
			fatal(fmt.Errorf("usage: wsinspect -gen <function> <outdir>"))
		}
		if err := generate(*gen, flag.Arg(0)); err != nil {
			fatal(err)
		}
		return
	}

	if flag.NArg() == 0 {
		fatal(fmt.Errorf("usage: wsinspect [-groups] <artifact>..."))
	}
	for _, path := range flag.Args() {
		if err := inspect(path, *groups); err != nil {
			fatal(fmt.Errorf("%s: %w", path, err))
		}
	}
}

// inspect auto-detects the artifact type by magic and prints a summary.
func inspect(path string, listGroups bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	var magic uint32
	if err := binary.Read(f, binary.LittleEndian, &magic); err != nil {
		f.Close()
		return err
	}
	f.Close()

	fmt.Printf("%s:\n", path)
	switch magic {
	case snapshot.MagicMemory:
		m, err := snapshot.LoadMemoryImage(path)
		if err != nil {
			return err
		}
		fmt.Printf("  type          snapshot memory image\n")
		fmt.Printf("  guest memory  %d pages (%.1f MiB)\n", m.NrPages, units.PagesToMiB(m.NrPages))
		fmt.Printf("  state pages   %d (%.1f MiB)\n", m.StatePages, units.PagesToMiB(m.StatePages))
		fmt.Printf("  zero pages    %d\n", m.ZeroPages())
		fmt.Printf("  free PFNs     %d (allocator metadata)\n", len(m.FreePFNs))
	case snapshot.MagicOffsets:
		ws, err := snapshot.LoadOffsetsWS(path)
		if err != nil {
			return err
		}
		fmt.Printf("  type          SnapBPF offsets working set (no page data)\n")
		fmt.Printf("  groups        %d\n", len(ws.Groups))
		fmt.Printf("  pages         %d (%.1f MiB of snapshot data)\n", ws.TotalPages(), units.PagesToMiB(ws.TotalPages()))
		fmt.Printf("  file overhead %.1f KiB (metadata only)\n", float64(16*len(ws.Groups))/1024)
		if listGroups {
			for i, g := range ws.Groups {
				fmt.Printf("    group %4d: pages [%d, %d)\n", i, g.Start, g.End())
			}
		}
	case snapshot.MagicPaged:
		ws, err := snapshot.LoadPagedWS(path)
		if err != nil {
			return err
		}
		fmt.Printf("  type          REAP/Faast paged working set (offsets + contents)\n")
		fmt.Printf("  pages         %d (%.1f MiB serialized page data)\n", ws.TotalPages(), units.PagesToMiB(ws.TotalPages()))
		if listGroups {
			for i, pg := range ws.Pages {
				fmt.Printf("    entry %4d: page %d tag %#x\n", i, pg, ws.Tags[i])
			}
		}
	case snapshot.MagicRegion:
		ws, err := snapshot.LoadRegionWS(path)
		if err != nil {
			return err
		}
		fmt.Printf("  type          FaaSnap region working set (coalesced, with contents)\n")
		fmt.Printf("  regions       %d\n", len(ws.Regions))
		fmt.Printf("  true WS       %d pages\n", ws.WSPages)
		fmt.Printf("  file pages    %d (inflation %.2fx)\n", ws.TotalPages(), ws.Inflation())
		if listGroups {
			for i, g := range ws.Regions {
				fmt.Printf("    region %4d: pages [%d, %d)\n", i, g.Start, g.End())
			}
		}
	case trace.Magic:
		tr, err := trace.LoadFile(path)
		if err != nil {
			return err
		}
		s := tr.Summarize()
		fmt.Printf("  type          invocation trace\n")
		fmt.Printf("  operations    %d\n", len(tr.Ops))
		fmt.Printf("  accesses      %d (%d unique state pages, %d writes)\n", s.Accesses, s.UniquePages, s.Writes)
		fmt.Printf("  allocations   %d pages (%d freed blocks)\n", s.AllocPages, s.FreedAllocs)
		fmt.Printf("  compute       %v\n", s.TotalCompute)
	default:
		return fmt.Errorf("unknown artifact magic %#x", magic)
	}
	return nil
}

// generate records a function under SnapBPF, REAP and FaaSnap and
// writes all artifacts to outdir, so users have real files to inspect.
func generate(fnName, outdir string) error {
	fn, err := workload.ByName(fnName)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outdir, 0o755); err != nil {
		return err
	}

	write := func(name string, fnWrite func(string) error) error {
		path := filepath.Join(outdir, name)
		if err := fnWrite(path); err != nil {
			return err
		}
		fmt.Println("wrote", path)
		return nil
	}

	img := vmm.BuildImage(fn, true)
	if err := write(fn.Name+".snapmem", img.SaveFile); err != nil {
		return err
	}
	tr := fn.GenTrace() // read-only: every record below replays it
	if err := write(fn.Name+".trace", tr.SaveFile); err != nil {
		return err
	}

	// Record each scheme on its own host.
	type rec struct {
		make func(env *prefetch.Env) (func(string) error, string)
	}
	records := []rec{
		{func(env *prefetch.Env) (func(string) error, string) {
			s := core.New()
			runRecord(env, s.Record)
			return s.WorkingSet().SaveFile, fn.Name + ".snapbpf-ws"
		}},
		{func(env *prefetch.Env) (func(string) error, string) {
			r := reap.New()
			runRecord(env, r.Record)
			return r.WorkingSet().SaveFile, fn.Name + ".reap-ws"
		}},
		{func(env *prefetch.Env) (func(string) error, string) {
			f := faasnap.New()
			runRecord(env, f.Record)
			return f.WorkingSet().SaveFile, fn.Name + ".faasnap-ws"
		}},
	}
	for _, r := range records {
		h := vmm.NewHost(blockdev.MicronSATA5300())
		zimg := vmm.BuildImage(fn, true)
		env := &prefetch.Env{
			Host:        h,
			Fn:          fn,
			Image:       zimg,
			SnapInode:   h.RegisterSnapshot(fn.Name+".snapmem", zimg),
			RecordTrace: tr,
			InvokeTrace: tr,
		}
		save, name := r.make(env)
		if err := write(name, save); err != nil {
			return err
		}
	}
	return nil
}

func runRecord(env *prefetch.Env, record func(*sim.Proc, *prefetch.Env) error) {
	var err error
	env.Host.Eng.Go("record", func(p *sim.Proc) { err = record(p, env) })
	env.Host.Eng.Run()
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wsinspect:", err)
	os.Exit(1)
}
