package snapbpf_test

import (
	"fmt"
	"os"
	"path/filepath"

	"snapbpf"
)

// The tiny function keeps documentation examples fast; real workloads
// come from snapbpf.Functions().
func exampleFunction() snapbpf.Function {
	return snapbpf.Function{
		Name: "doc-example", MemMiB: 32, StateMiB: 16, WSMiB: 4, WSRegions: 6,
		AllocMiB: 2, ComputeMs: 5, WriteFrac: 0.1, Seed: 1,
	}
}

// ExampleRun measures one cold start under SnapBPF.
func ExampleRun() {
	res, err := snapbpf.Run(exampleFunction(), snapbpf.SchemeSnapBPF, snapbpf.RunConfig{N: 1})
	if err != nil {
		panic(err)
	}
	fmt.Println("sandboxes:", res.N)
	fmt.Println("working-set groups captured:", res.WSGroups > 0)
	fmt.Println("deterministic E2E:", res.MeanE2E > 0)
	// Output:
	// sandboxes: 1
	// working-set groups captured: true
	// deterministic E2E: true
}

// ExampleRun_quickstart restores json from its snapshot and invokes it
// cold under the vanilla Linux baseline and under SnapBPF. Run does the
// whole protocol on a fresh simulated host: a record invocation for
// schemes that capture working sets, a page-cache drop, then the
// measured cold start. SnapBPF prefetches the captured working set
// through the page cache, so storage reads overlap execution instead
// of arriving one readahead window at a time.
func ExampleRun_quickstart() {
	fn, err := snapbpf.FunctionByName("json")
	if err != nil {
		panic(err)
	}
	for _, scheme := range []snapbpf.Scheme{snapbpf.SchemeLinuxRA, snapbpf.SchemeSnapBPF} {
		res, err := snapbpf.Run(fn, scheme, snapbpf.RunConfig{N: 1})
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-8s  E2E %6.1fms  device %5.1f MiB in %4d requests\n",
			res.Scheme, res.MeanE2E.Seconds()*1000,
			float64(res.DeviceBytes)/(1<<20), res.DeviceRequests)
		if res.OffsetLoad > 0 {
			fmt.Printf("          %d offset groups loaded into the kernel in %v\n",
				res.WSGroups, res.OffsetLoad)
		}
	}
	// Output:
	// Linux-RA  E2E  204.1ms  device  37.5 MiB in  300 requests
	// SnapBPF   E2E  115.5ms  device  26.1 MiB in  161 requests
	//           160 offset groups loaded into the kernel in 146.25µs
}

// ExampleRun_concurrent shows the deduplication effect: ten sandboxes
// share one page-cache copy of the working set, where REAP installs a
// private copy in each.
func ExampleRun_concurrent() {
	fn := exampleFunction()
	one, _ := snapbpf.Run(fn, snapbpf.SchemeSnapBPF, snapbpf.RunConfig{N: 1})
	ten, _ := snapbpf.Run(fn, snapbpf.SchemeSnapBPF, snapbpf.RunConfig{N: 10})
	reap, _ := snapbpf.Run(fn, snapbpf.SchemeREAP, snapbpf.RunConfig{N: 10})
	// Ten sandboxes read the working set from storage once, not ten times.
	fmt.Println("storage reads scale sub-linearly:", ten.DeviceBytes < 2*one.DeviceBytes)
	fmt.Printf("system memory at 10 sandboxes: REAP %v, SnapBPF %v\n", reap.SystemMemory, ten.SystemMemory)
	// Output:
	// storage reads scale sub-linearly: true
	// system memory at 10 sandboxes: REAP 55.00MiB, SnapBPF 23.61MiB
}

// ExampleSnapBPF_Record records the working set of a user-defined
// function with SnapBPF's eBPF capture program, which logs every
// snapshot page the invocation faults in from the
// add_to_page_cache_lru kprobe, with readahead off. The artifact is
// the grouped, access-ordered page offsets that drive prefetching;
// unlike the userspace baselines, nothing but these offsets is written
// to disk (§3.1 of the paper). cmd/wsinspect reads the saved files.
func ExampleSnapBPF_Record() {
	fn := snapbpf.Function{
		Name: "my-function", MemMiB: 128, StateMiB: 64, WSMiB: 12, WSRegions: 20,
		AllocMiB: 8, ComputeMs: 30, WriteFrac: 0.2, Seed: 2025,
	}
	if err := fn.Validate(); err != nil {
		panic(err)
	}
	host := snapbpf.NewHost(snapbpf.MicronSATA5300())
	image := snapbpf.BuildImage(fn, false)
	env := &snapbpf.Env{
		Host: host, Fn: fn, Image: image,
		SnapInode:   host.RegisterSnapshot(fn.Name+".snapmem", image),
		RecordTrace: fn.GenTrace(), InvokeTrace: fn.GenTrace(),
	}
	s := snapbpf.New()
	var err error
	host.Eng.Go("record", func(p *snapbpf.Proc) { err = s.Record(p, env) })
	host.Eng.Run()
	if err != nil {
		panic(err)
	}

	ws := s.WorkingSet()
	fmt.Printf("%d pages in %d groups; the first three in prefetch order:\n", ws.TotalPages(), len(ws.Groups))
	for _, g := range ws.Groups[:3] {
		fmt.Printf("  pages [%d, %d)\n", g.Start, g.End())
	}

	dir, err := os.MkdirTemp("", "snapbpf-capture-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	imgPath := filepath.Join(dir, fn.Name+".snapmem")
	wsPath := filepath.Join(dir, fn.Name+".snapbpf-ws")
	if err := image.SaveFile(imgPath); err != nil {
		panic(err)
	}
	if err := ws.SaveFile(wsPath); err != nil {
		panic(err)
	}
	for _, p := range []string{imgPath, wsPath} {
		st, err := os.Stat(p)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s: %d bytes\n", filepath.Base(p), st.Size())
	}
	// Output:
	// 3072 pages in 80 groups; the first three in prefetch order:
	//   pages [15308, 15355)
	//   pages [15356, 15403)
	//   pages [15404, 15451)
	// my-function.snapmem: 393252 bytes
	// my-function.snapbpf-ws: 1300 bytes
}

// ExampleSchemeByName resolves baselines by their figure names.
func ExampleSchemeByName() {
	s, _ := snapbpf.SchemeByName("REAP")
	fmt.Println(s.New().Capabilities().Mechanism)
	// Output:
	// Userfaultfd (User-space)
}

// ExampleNewBPFBuilder assembles, verifies and runs a custom eBPF
// program on a simulated host.
func ExampleNewBPFBuilder() {
	host := snapbpf.NewHost(snapbpf.MicronSATA5300())
	b := snapbpf.NewBPFBuilder()
	b.Mov64Reg(snapbpf.R0, snapbpf.R1). // return first argument...
						Mul64Imm(snapbpf.R0, 2). // ...doubled
						Exit()
	prog, err := snapbpf.LoadBPF(host, "double", b.MustProgram())
	if err != nil {
		panic(err)
	}
	out, _ := prog.Run(nil, 21)
	fmt.Println(out)
	// Output:
	// 42
}

// ExampleAttachKprobe programs the simulated kernel's page cache with
// a custom eBPF program, a minimal "cachestat": it counts page-cache
// insertions per inode in a hash map, attached to the same
// add_to_page_cache_lru kprobe SnapBPF's capture and prefetch programs
// use, and checked by the same verifier.
func ExampleAttachKprobe() {
	host := snapbpf.NewHost(snapbpf.MicronSATA5300())
	counts, err := snapbpf.NewBPFMap(snapbpf.MapTypeHash, "inode_counts", 1024)
	if err != nil {
		panic(err)
	}
	fd := snapbpf.RegisterBPFMap(host, counts)

	// R1 = inode id, R2 = page offset: counts[inode]++.
	b := snapbpf.NewBPFBuilder()
	b.StxDW(snapbpf.RFP, -8, snapbpf.R1) // key = inode
	b.Mov64Imm(snapbpf.R1, fd)
	b.Mov64Reg(snapbpf.R2, snapbpf.RFP).Add64Imm(snapbpf.R2, -8)
	b.Mov64Reg(snapbpf.R3, snapbpf.RFP).Add64Imm(snapbpf.R3, -16)
	b.Call(snapbpf.HelperMapLookupElem)
	b.JmpImm(snapbpf.OpJeq, snapbpf.R0, 1, "found")
	b.StDWImm(snapbpf.RFP, -16, 0) // first insertion for this inode
	b.Label("found")
	b.LdxDW(snapbpf.R6, snapbpf.RFP, -16)
	b.Add64Imm(snapbpf.R6, 1)
	b.StxDW(snapbpf.RFP, -16, snapbpf.R6)
	b.Mov64Imm(snapbpf.R1, fd)
	b.Mov64Reg(snapbpf.R2, snapbpf.RFP).Add64Imm(snapbpf.R2, -8)
	b.Mov64Reg(snapbpf.R3, snapbpf.RFP).Add64Imm(snapbpf.R3, -16)
	b.Call(snapbpf.HelperMapUpdateElem)
	b.Mov64Imm(snapbpf.R0, 0)
	b.Exit()
	prog, err := snapbpf.LoadBPF(host, "inode-histogram", b.MustProgram())
	if err != nil {
		panic(err) // the verifier rejected it
	}
	detach, err := snapbpf.AttachKprobe(host, snapbpf.HookAddToPageCacheLRU, prog)
	if err != nil {
		panic(err)
	}

	// One cold start of pyaes under Linux readahead fills the cache.
	fn, err := snapbpf.FunctionByName("pyaes")
	if err != nil {
		panic(err)
	}
	image := snapbpf.BuildImage(fn, false)
	snapInode := host.RegisterSnapshot(fn.Name+".snapmem", image)
	env := &snapbpf.Env{
		Host: host, Fn: fn, Image: image, SnapInode: snapInode,
		RecordTrace: fn.GenTrace(), InvokeTrace: fn.GenTrace(),
	}
	l := snapbpf.NewLinuxRA()
	host.Eng.Go("vm", func(p *snapbpf.Proc) {
		vm, e := host.Restore(p, "vm0", fn, image, snapInode, l.RestoreConfig(0))
		if e == nil {
			e = l.PrepareVM(p, env, vm)
		}
		if e == nil {
			_, e = vm.Invoke(p, env.InvokeTrace)
		}
		err = e
	})
	host.Eng.Run()
	if err != nil {
		panic(err)
	}
	if err := detach(); err != nil {
		panic(err)
	}

	fmt.Printf("program ran %d times\n", prog.Runs())
	for _, e := range counts.Entries() {
		fmt.Printf("inode %d: %d pages inserted\n", e.Key, e.Value)
	}
	// Output:
	// program ran 3904 times
	// inode 1: 3904 pages inserted
}
