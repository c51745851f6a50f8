// Package blockdev models a block storage device under the discrete
// event simulator.
//
// The default parameters approximate the Micron 5300 SATA TLC NAND SSD
// used in the SnapBPF paper: tens-of-microseconds access latency,
// ~540MB/s sequential read bandwidth, and — crucially for the paper's
// key insight — essentially no penalty for non-sequential access. The
// device services requests through a bounded queue (NCQ-style), so
// concurrent VMs restoring snapshots contend for bandwidth and queue
// slots exactly as they do on real hardware. An HDD-like profile is
// also provided to demonstrate the regime where the paper's
// "skip WS serialization" insight would not hold.
package blockdev

import (
	"fmt"
	"time"

	"snapbpf/internal/faults"
	"snapbpf/internal/sim"
	"snapbpf/internal/units"
)

// Params describes a device's performance envelope.
type Params struct {
	Name string

	// AccessLatency is the fixed per-request service latency
	// (controller + flash read), independent of size.
	AccessLatency time.Duration

	// SeekLatency is an additional penalty applied when a request's
	// start offset does not follow the previous request's end offset.
	// Zero for SSDs; milliseconds for spindle media.
	SeekLatency time.Duration

	// BytesPerSecond is the sustained transfer bandwidth, shared by
	// all in-flight requests.
	BytesPerSecond int64

	// CommandOverhead is the serialized per-request cost of the
	// command path (protocol + controller), which is what caps small
	// random-read IOPS below the bandwidth limit.
	CommandOverhead time.Duration

	// QueueDepth is the number of requests serviced concurrently
	// (NCQ slots). Further requests wait.
	QueueDepth int

	// MaxRequestBytes caps a single request; larger reads are split
	// by callers (the page cache) into multiple requests.
	MaxRequestBytes int64
}

// MicronSATA5300 returns parameters approximating the paper's
// 480GiB Micron 5300 SATA SSD.
func MicronSATA5300() Params {
	return Params{
		Name:            "micron-5300-sata",
		AccessLatency:   90 * time.Microsecond,
		SeekLatency:     0,
		BytesPerSecond:  540 << 20,              // ~540 MiB/s sequential
		CommandOverhead: 2500 * time.Nanosecond, // ~95-100k 4KiB IOPS
		QueueDepth:      32,
		MaxRequestBytes: 512 << 10,
	}
}

// NVMeGen4 returns parameters for a modern datacenter NVMe drive:
// an order of magnitude more bandwidth and IOPS than the paper's SATA
// SSD, with deeper queues.
func NVMeGen4() Params {
	return Params{
		Name:            "nvme-gen4",
		AccessLatency:   20 * time.Microsecond,
		SeekLatency:     0,
		BytesPerSecond:  6800 << 20, // ~6.8 GiB/s
		CommandOverhead: 700 * time.Nanosecond,
		QueueDepth:      256,
		MaxRequestBytes: 512 << 10,
	}
}

// SpindleHDD returns parameters for a 7200rpm spindle disk, used by
// ablation experiments to show where non-sequential WS prefetch loses.
func SpindleHDD() Params {
	return Params{
		Name:            "spindle-7200",
		AccessLatency:   200 * time.Microsecond,
		SeekLatency:     6 * time.Millisecond,
		BytesPerSecond:  180 << 20,
		CommandOverhead: 20 * time.Microsecond,
		QueueDepth:      4,
		MaxRequestBytes: 1 << 20,
	}
}

// Stats accumulates device-level counters for the experiment harness.
type Stats struct {
	Requests   int64
	BytesRead  int64
	Sequential int64 // requests that continued the previous LBA
	BusyTime   time.Duration
}

// Device is a simulated block device. All methods must be called from
// simulation context (processes or event callbacks of the same engine).
//
// Service model: up to QueueDepth requests are in flight at once and
// pay AccessLatency concurrently (NCQ), but the media portion — seek,
// command overhead and data transfer — serializes on the device's
// shared bandwidth. Aggregate throughput is therefore bounded by
// BytesPerSecond for large requests and by 1/CommandOverhead-ish IOPS
// for small ones, independent of queue depth, which is what creates
// the storage contention between concurrent sandboxes in Fig. 3b.
//
// Dispatch is two-class, like Linux's mq-deadline treatment of
// REQ_RAHEAD: synchronous reads (demand faults, direct I/O) are
// dispatched before queued asynchronous readahead, so a fault can
// overtake a long prefetch stream instead of draining behind it.
type Device struct {
	eng *sim.Engine
	p   Params

	inFlight int
	syncQ    []*request
	asyncQ   []*request

	// lastEnd is the ending byte offset of the most recently *started*
	// request, used for the sequentiality/seek model.
	lastEnd int64

	// busUntil is the virtual time when the shared media/bandwidth
	// resource becomes free.
	busUntil sim.Time

	// faults, when non-nil, draws a deterministic fault treatment for
	// every serviced request (see internal/faults).
	faults *faults.Injector

	// nextIO numbers submissions for observer submit/complete pairing.
	nextIO int64

	obs []Observer

	stats Stats
}

// Observer receives device-level events for the correctness harness
// (internal/check) and the observability layer (internal/obs).
// Observers must not mutate device state.
type Observer interface {
	// IOSubmitted fires once per submission, after it was split into
	// parts requests. id is the submission's device-unique identifier
	// (monotonically increasing in submission order); the matching
	// IOCompleted carries the same id, so observers can pair them into
	// submission→completion spans.
	IOSubmitted(id, off, length int64, sync bool, attempt, parts int)
	// RequestServiced fires when one request (split part) enters an NCQ
	// slot, after the drawn fault treatment was applied. inFlight
	// includes the request itself. out.Short implies the tail was
	// requeued as an extra part (the injector only draws Short for
	// requests spanning at least two pages).
	RequestServiced(off, length int64, attempt, inFlight int, out faults.ReadOutcome)
	// RequestCompleted fires when a request leaves its NCQ slot;
	// inFlight is the post-completion count.
	RequestCompleted(inFlight int)
	// IOCompleted fires when the last part of a submission completes,
	// immediately before the submission's Waiter. id matches the
	// submission's IOSubmitted event.
	IOCompleted(id int64, failed bool)
}

// AddObserver attaches o after the device's other observers.
func (d *Device) AddObserver(o Observer) { d.obs = sim.AppendObserver(d.obs, o) }

// IO is the handle for one submission: a completion Waiter plus the
// submission's error status, valid once the Waiter has fired. A
// submission split into parts completes once all parts do; the first
// part to fail sets the error.
type IO struct {
	id   int64
	done *sim.Waiter
	err  error
}

// ID returns the submission's device-unique identifier, as reported
// to Observer.IOSubmitted/IOCompleted.
func (io *IO) ID() int64 { return io.id }

// Done returns the completion Waiter.
func (io *IO) Done() *sim.Waiter { return io.done }

// Err returns the submission's error, valid after Done() has fired.
// Injected errors are transient: resubmitting at a higher attempt
// index eventually succeeds (see faults.MaxErrorAttempts).
func (io *IO) Err() error { return io.err }

func (io *IO) fail(err error) {
	if io.err == nil {
		io.err = err
	}
}

type request struct {
	off, len int64
	io       *IO
	remain   *int // outstanding split-parts counter shared by one submission
	sync     bool
	attempt  int // retry index forwarded to the fault injector
}

// New creates a device on the given engine.
func New(eng *sim.Engine, p Params) *Device {
	if p.QueueDepth <= 0 {
		p.QueueDepth = 1
	}
	if p.BytesPerSecond <= 0 {
		panic("blockdev: BytesPerSecond must be positive")
	}
	if p.MaxRequestBytes <= 0 {
		p.MaxRequestBytes = 512 << 10
	}
	return &Device{eng: eng, p: p, lastEnd: -1}
}

// Params returns the device parameters.
func (d *Device) Params() Params { return d.p }

// SetFaults attaches a fault injector; nil detaches. Must be set
// before the first request is submitted so draw streams line up across
// identically-seeded runs.
func (d *Device) SetFaults(in *faults.Injector) { d.faults = in }

// Faults returns the attached injector (nil when healthy).
func (d *Device) Faults() *faults.Injector { return d.faults }

// Stats returns a snapshot of the accumulated counters.
func (d *Device) Stats() Stats { return d.stats }

// ResetStats zeroes the counters.
func (d *Device) ResetStats() { d.stats = Stats{} }

// mediaTime computes the serialized (bandwidth-bound) portion of one
// request: seek + command overhead + transfer.
func (d *Device) mediaTime(off, length int64) time.Duration {
	t := d.p.CommandOverhead
	if d.p.SeekLatency > 0 && off != d.lastEnd {
		t += d.p.SeekLatency
	}
	t += time.Duration(float64(length) / float64(d.p.BytesPerSecond) * float64(time.Second))
	return t
}

// Read performs a synchronous read of length bytes at byte offset off,
// blocking the calling process for queueing plus service time. The
// returned error is non-nil when the device injected a transient media
// error; retry via ReadAttempt with an incremented attempt index.
func (d *Device) Read(p *sim.Proc, off, length int64) error {
	return d.ReadAttempt(p, off, length, 0)
}

// ReadAttempt is Read with an explicit retry index, forwarded to the
// fault injector so its transient-error guarantee applies.
func (d *Device) ReadAttempt(p *sim.Proc, off, length int64, attempt int) error {
	io := d.SubmitReadIO(off, length, attempt)
	p.Wait(io.Done())
	return io.Err()
}

// SubmitRead enqueues a synchronous-class read and returns a Waiter
// that fires on completion. Use SubmitReadIO to observe errors.
func (d *Device) SubmitRead(off, length int64) *sim.Waiter {
	return d.submit(off, length, true, 0).done
}

// SubmitReadahead enqueues an asynchronous-class (REQ_RAHEAD) read:
// it yields dispatch priority to synchronous reads. Use
// SubmitReadaheadIO to observe errors.
func (d *Device) SubmitReadahead(off, length int64) *sim.Waiter {
	return d.submit(off, length, false, 0).done
}

// SubmitReadIO enqueues a synchronous-class read and returns its IO
// handle. attempt is the caller's retry index (0 first).
func (d *Device) SubmitReadIO(off, length int64, attempt int) *IO {
	return d.submit(off, length, true, attempt)
}

// SubmitReadaheadIO enqueues an asynchronous-class read and returns
// its IO handle. attempt is the caller's retry index (0 first).
func (d *Device) SubmitReadaheadIO(off, length int64, attempt int) *IO {
	return d.submit(off, length, false, attempt)
}

func (d *Device) submit(off, length int64, sync bool, attempt int) *IO {
	if length <= 0 {
		panic(fmt.Sprintf("blockdev: non-positive read length %d", length))
	}
	d.nextIO++
	io := &IO{id: d.nextIO, done: d.eng.NewWaiter()}
	parts := splitRequest(off, length, d.p.MaxRequestBytes)
	remain := len(parts)
	for _, o := range d.obs {
		o.IOSubmitted(io.id, off, length, sync, attempt, len(parts))
	}
	for _, part := range parts {
		r := &request{off: part.off, len: part.len, io: io, remain: &remain, sync: sync, attempt: attempt}
		if sync {
			d.syncQ = append(d.syncQ, r)
		} else {
			d.asyncQ = append(d.asyncQ, r)
		}
	}
	d.pump()
	return io
}

// pump dispatches queued requests into free NCQ slots, synchronous
// class first.
func (d *Device) pump() {
	for d.inFlight < d.p.QueueDepth {
		var r *request
		switch {
		case len(d.syncQ) > 0:
			r = d.syncQ[0]
			d.syncQ = d.syncQ[1:]
		case len(d.asyncQ) > 0:
			r = d.asyncQ[0]
			d.asyncQ = d.asyncQ[1:]
		default:
			return
		}
		d.inFlight++
		d.service(r)
	}
}

// service runs one request to completion: it reserves the serialized
// media window and schedules the completion event. With an injector
// attached, the drawn fault treatment is applied here: a spike extends
// the serialized media window (slowing every later request), a stuck
// slot delays completion and the NCQ slot without occupying the bus, a
// short read transfers only the leading half and requeues the tail at
// the head of its class queue, and a transient error marks the IO
// failed (it still consumes media time — the device tried).
func (d *Device) service(r *request) {
	out := d.faults.ReadOutcome(r.attempt, r.len/int64(units.PageSize))
	if out.Err {
		r.io.fail(fmt.Errorf("blockdev %s: transient media error reading [%d,%d) attempt %d",
			d.p.Name, r.off, r.off+r.len, r.attempt))
	}
	if out.Short {
		half := r.len / 2
		half -= half % int64(units.PageSize)
		tail := &request{off: r.off + half, len: r.len - half, io: r.io,
			remain: r.remain, sync: r.sync, attempt: r.attempt}
		*r.remain++
		r.len = half
		if r.sync {
			d.syncQ = append([]*request{tail}, d.syncQ...)
		} else {
			d.asyncQ = append([]*request{tail}, d.asyncQ...)
		}
	}
	for _, o := range d.obs {
		o.RequestServiced(r.off, r.len, r.attempt, d.inFlight, out)
	}
	mt := d.mediaTime(r.off, r.len) + out.ExtraMediaTime
	if r.off == d.lastEnd {
		d.stats.Sequential++
	}
	d.lastEnd = r.off + r.len
	d.stats.Requests++
	d.stats.BytesRead += r.len
	d.stats.BusyTime += mt
	now := d.eng.Now()
	start := d.busUntil
	if start < now {
		start = now
	}
	d.busUntil = start.Add(mt)
	completeAt := d.busUntil.Add(d.p.AccessLatency + out.HoldSlot)
	d.eng.ScheduleAt(completeAt, func() {
		d.inFlight--
		*r.remain--
		for _, o := range d.obs {
			o.RequestCompleted(d.inFlight)
		}
		if *r.remain == 0 {
			for _, o := range d.obs {
				o.IOCompleted(r.io.id, r.io.err != nil)
			}
			r.io.done.Fire()
		}
		d.pump()
	})
}

// ReadPages is a convenience wrapper reading n pages starting at page
// index idx.
func (d *Device) ReadPages(p *sim.Proc, idx, n int64) error {
	return d.Read(p, units.PageOffset(idx), n*int64(units.PageSize))
}

type span struct{ off, len int64 }

func splitRequest(off, length, max int64) []span {
	var out []span
	for length > 0 {
		l := length
		if l > max {
			l = max
		}
		out = append(out, span{off, l})
		off += l
		length -= l
	}
	return out
}
