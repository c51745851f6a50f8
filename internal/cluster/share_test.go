package cluster_test

import (
	"reflect"
	"testing"
	"time"

	"snapbpf/internal/check"
	"snapbpf/internal/cluster"
	"snapbpf/internal/core"
	"snapbpf/internal/faults"
	"snapbpf/internal/prefetch"
	"snapbpf/internal/sim"
	"snapbpf/internal/vmm"
	"snapbpf/internal/workload"
)

// envCapture is a SnapBPF that keeps the Env each host stages it with.
type envCapture struct {
	prefetch.Prefetcher
	envs *[]*prefetch.Env
}

func (c envCapture) Record(p *sim.Proc, env *prefetch.Env) error {
	*c.envs = append(*c.envs, env)
	return c.Prefetcher.Record(p, env)
}

// sameArray reports whether a and b share a backing array: slices of
// one array end their capacity at the same element.
func sameArray(a, b []uint64) bool {
	return cap(a) > 0 && cap(b) > 0 && &a[:cap(a)][cap(a)-1] == &b[:cap(b)][cap(b)-1]
}

// Every host of a region stages a function from one trace and one
// image, each checker's reference tags are a copy no scheme sees, and
// the run writes through neither the trace nor the image.
func TestRegionSharesFunctionStaging(t *testing.T) {
	var envs []*prefetch.Env
	scheme := cluster.Scheme{Name: "SnapBPF", New: func() prefetch.Prefetcher {
		return envCapture{core.New(), &envs}
	}}
	res, err := cluster.Run(cluster.Config{
		Hosts:    2,
		Scheme:   scheme,
		Arrivals: mix(6, 200*time.Millisecond, "json", "pyaes"),
		Faults:   planPtr(faults.Light(5)),
		Check:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Hosts[0].Cold == 0 || res.Hosts[1].Cold == 0 {
		t.Fatalf("cold starts per host %d, %d: want both hosts restoring", res.Hosts[0].Cold, res.Hosts[1].Cold)
	}
	byFn := make(map[string][]*prefetch.Env)
	for _, env := range envs {
		byFn[env.Fn.Name] = append(byFn[env.Fn.Name], env)
	}
	if len(byFn) != 2 {
		t.Fatalf("staged functions %v, want json and pyaes", byFn)
	}
	for name, es := range byFn {
		if len(es) != 2 {
			t.Fatalf("%s staged on %d hosts, want 2", name, len(es))
		}
		if es[0].SnapInode == es[1].SnapInode {
			t.Errorf("%s: both hosts share one snapshot inode", name)
		}
		for _, env := range es {
			if env.Image != es[0].Image || env.InvokeTrace != es[0].InvokeTrace || env.RecordTrace != es[0].InvokeTrace {
				t.Errorf("%s on %s: trace or image is a per-host copy", name, env.SnapInode.Name())
			}
			var chk *check.Checker
			for _, o := range env.Observers {
				if c, ok := o.(*check.Checker); ok {
					chk = c
				}
			}
			tags := chk.FileTags(env.SnapInode)
			if !reflect.DeepEqual(tags, env.Image.PageTags) {
				t.Errorf("%s on %s: checker tags differ from the image", name, env.SnapInode.Name())
			}
			if sameArray(tags, env.Image.PageTags) {
				t.Errorf("%s on %s: checker tags share the image's array", name, env.SnapInode.Name())
			}
		}
		fn, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(es[0].InvokeTrace, fn.GenTrace()) {
			t.Errorf("%s: the run wrote through the shared trace", name)
		}
		if !reflect.DeepEqual(es[0].Image, vmm.BuildImage(fn, core.New().RestoreConfig(0).ZeroOnFree)) {
			t.Errorf("%s: the run wrote through the shared image", name)
		}
	}
}
