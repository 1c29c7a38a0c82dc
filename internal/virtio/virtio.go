// Package virtio models the virtio-mem guest memory device (gMD): the
// QEMU-side device that negotiates memory size with the guest in 2 MiB
// sub-blocks, and the guest-side driver — including the two driver
// modifications the paper makes (Section 4.2.2): voluntary sub-block
// releases that the hypervisor never requested, and suppression of the
// automatic re-plug that would otherwise undo them.
//
// The device faithfully models the property the attack exploits: the
// hypervisor sets a *requested* size but does not enforce that guest
// plug/unplug requests move the current size toward it. An optional
// Guard hook implements the paper's proposed quarantine countermeasure
// (Section 6).
package virtio

import (
	"errors"
	"fmt"

	"hyperhammer/internal/memdef"
	"hyperhammer/internal/metrics"
)

// SubBlockSize is the virtio-mem sub-block granularity: 2 MiB, aligned
// with CPU hugepages and order-9 buddy blocks (Section 4.1).
const SubBlockSize = memdef.HugePageSize

// Errors returned by device operations.
var (
	// ErrNACK is the device's refusal of a request, either for
	// protocol reasons or because the Guard rejected it.
	ErrNACK = errors.New("virtio-mem: request NACKed")
	// ErrBadRange reports a request outside the device region or
	// misaligned to the sub-block size.
	ErrBadRange = errors.New("virtio-mem: bad range")
	// ErrState reports plugging an already-plugged sub-block or
	// unplugging an unplugged one.
	ErrState = errors.New("virtio-mem: wrong sub-block state")
)

// MemBackend is the hypervisor side of the device: what QEMU does when
// a request is accepted. PlugRange allocates host backing and maps the
// guest range; UnplugRange unmaps it and releases the backing to the
// host kernel (madvise(DONTNEED) in real QEMU, a buddy free here).
type MemBackend interface {
	PlugRange(gpa memdef.GPA, size uint64) error
	UnplugRange(gpa memdef.GPA, size uint64) error
}

// Guard inspects a guest-initiated resize request before the device
// acts on it. delta is the signed size change the request would cause
// (negative for unplug); current and requested are the device's sizes
// at the time of the request. A non-nil error NACKs the request.
//
// A nil Guard models stock QEMU, which performs no such check — the
// gap HyperHammer exploits.
type Guard func(delta int64, current, requested uint64) error

// MemDevice is one virtio-mem device instance attached to a VM.
type MemDevice struct {
	regionAddr memdef.GPA
	regionSize uint64
	backend    MemBackend
	guard      Guard

	plugged      []bool
	pluggedBytes uint64
	requested    uint64

	// stats for experiments
	unplugRequests int
	nackCount      int

	met deviceMetrics
}

// deviceMetrics caches the device's instrument handles; all nil
// (no-op) until SetMetrics. Series are shared by name across devices.
type deviceMetrics struct {
	plugs   *metrics.Counter
	unplugs *metrics.Counter
	nacks   *metrics.Counter
	plugged *metrics.Gauge
}

// SetMetrics registers the device's instruments with reg. A nil
// registry leaves the device uninstrumented at zero cost.
func (d *MemDevice) SetMetrics(reg *metrics.Registry) {
	d.met = deviceMetrics{
		plugs:   reg.Counter("virtio_plugs_total", "Sub-blocks plugged by guest PLUG requests."),
		unplugs: reg.Counter("virtio_unplugs_total", "Sub-blocks released by guest UNPLUG requests."),
		nacks:   reg.Counter("virtio_nacks_total", "Guest requests refused by the device (protocol or quarantine guard)."),
		plugged: reg.Gauge("virtio_plugged_bytes", "Bytes currently plugged across all virtio-mem devices."),
	}
	d.met.plugged.Add(int64(d.pluggedBytes))
}

// NewMemDevice creates a device covering the guest physical range
// [regionAddr, regionAddr+regionSize), fully unplugged, with requested
// size zero.
func NewMemDevice(regionAddr memdef.GPA, regionSize uint64, backend MemBackend, guard Guard) (*MemDevice, error) {
	if !memdef.HugeAligned(regionAddr) || regionSize == 0 || regionSize%SubBlockSize != 0 {
		return nil, fmt.Errorf("%w: region %#x+%#x", ErrBadRange, regionAddr, regionSize)
	}
	return &MemDevice{
		regionAddr: regionAddr,
		regionSize: regionSize,
		backend:    backend,
		guard:      guard,
		plugged:    make([]bool, regionSize/SubBlockSize),
	}, nil
}

// RegionSize returns the size of the device region in bytes.
func (d *MemDevice) RegionSize() uint64 { return d.regionSize }

// PluggedSize returns the currently plugged bytes (the paper's V).
func (d *MemDevice) PluggedSize() uint64 { return d.pluggedBytes }

// RequestedSize returns the hypervisor's target size (the paper's T).
func (d *MemDevice) RequestedSize() uint64 { return d.requested }

// NACKs returns how many guest requests the device refused, an
// experiment metric for the quarantine countermeasure.
func (d *MemDevice) NACKs() int { return d.nackCount }

// SetRequestedSize is the hypervisor-side resize: it changes the
// target and (in a real system) notifies the guest. The guest driver
// polls RequestedSize.
func (d *MemDevice) SetRequestedSize(bytes uint64) {
	if bytes > d.regionSize {
		bytes = d.regionSize
	}
	d.requested = bytes &^ (SubBlockSize - 1)
}

func (d *MemDevice) sbIndex(gpa memdef.GPA) (int, error) {
	if gpa < d.regionAddr || !memdef.HugeAligned(gpa) {
		return 0, fmt.Errorf("%w: gpa %#x", ErrBadRange, gpa)
	}
	idx := uint64(gpa-d.regionAddr) / SubBlockSize
	if idx >= uint64(len(d.plugged)) {
		return 0, fmt.Errorf("%w: gpa %#x", ErrBadRange, gpa)
	}
	return int(idx), nil
}

// IsPlugged reports whether the sub-block at gpa is plugged.
func (d *MemDevice) IsPlugged(gpa memdef.GPA) bool {
	idx, err := d.sbIndex(gpa)
	return err == nil && d.plugged[idx]
}

// Plug handles a guest PLUG request for one sub-block at gpa.
func (d *MemDevice) Plug(gpa memdef.GPA) error {
	idx, err := d.sbIndex(gpa)
	if err != nil {
		return err
	}
	if d.plugged[idx] {
		return fmt.Errorf("%w: %#x already plugged", ErrState, gpa)
	}
	if d.guard != nil {
		if gerr := d.guard(SubBlockSize, d.pluggedBytes, d.requested); gerr != nil {
			d.nackCount++
			d.met.nacks.Inc()
			return fmt.Errorf("%w: %v", ErrNACK, gerr)
		}
	}
	if err := d.backend.PlugRange(gpa, SubBlockSize); err != nil {
		return err
	}
	d.plugged[idx] = true
	d.pluggedBytes += SubBlockSize
	d.met.plugs.Inc()
	d.met.plugged.Add(SubBlockSize)
	return nil
}

// Unplug handles a guest UNPLUG request for one sub-block at gpa. With
// a nil Guard the device performs no policy check at all — it does not
// verify that the guest is responding to a hypervisor request, which
// is the lack of enforcement Page Steering abuses.
func (d *MemDevice) Unplug(gpa memdef.GPA) error {
	idx, err := d.sbIndex(gpa)
	if err != nil {
		return err
	}
	if !d.plugged[idx] {
		return fmt.Errorf("%w: %#x not plugged", ErrState, gpa)
	}
	d.unplugRequests++
	if d.guard != nil {
		if gerr := d.guard(-SubBlockSize, d.pluggedBytes, d.requested); gerr != nil {
			d.nackCount++
			d.met.nacks.Inc()
			return fmt.Errorf("%w: %v", ErrNACK, gerr)
		}
	}
	if err := d.backend.UnplugRange(gpa, SubBlockSize); err != nil {
		return err
	}
	d.plugged[idx] = false
	d.pluggedBytes -= SubBlockSize
	d.met.unplugs.Inc()
	d.met.plugged.Add(-SubBlockSize)
	return nil
}

// PluggedSubBlocks returns the GPAs of all plugged sub-blocks in
// ascending order.
func (d *MemDevice) PluggedSubBlocks() []memdef.GPA {
	var out []memdef.GPA
	for i, p := range d.plugged {
		if p {
			out = append(out, d.regionAddr+memdef.GPA(uint64(i)*SubBlockSize))
		}
	}
	return out
}

// GuestDriver is the guest kernel's virtio-mem driver. The stock
// driver keeps the plugged size synchronized with the hypervisor's
// requested size. The paper modifies it in two ways, both modelled:
//
//  1. UnplugSubBlock releases an attacker-chosen sub-block regardless
//     of the requested size (virtio_mem_sbm_unplug_sb_online).
//  2. SuppressAutoPlug disables the reconciliation that would
//     immediately re-plug voluntarily released memory.
type GuestDriver struct {
	dev *MemDevice
	// SuppressAutoPlug disables SyncToTarget's plugging direction,
	// the paper's second driver modification.
	SuppressAutoPlug bool
	// OnUnplug, if set, is called after a successful unplug so the
	// guest OS can stop using the released frames.
	OnUnplug func(gpa memdef.GPA, size uint64)
	// OnPlug, if set, is called after a successful plug.
	OnPlug func(gpa memdef.GPA, size uint64)
}

// NewGuestDriver attaches a driver to a device.
func NewGuestDriver(dev *MemDevice) *GuestDriver { return &GuestDriver{dev: dev} }

// SyncToTarget performs the stock driver's reconciliation loop: plug
// the lowest unplugged sub-blocks while below the requested size,
// unplug the highest plugged sub-blocks while above it. Returns the
// net signed byte change applied.
func (g *GuestDriver) SyncToTarget() (int64, error) {
	var change int64
	for g.dev.PluggedSize() < g.dev.RequestedSize() && !g.SuppressAutoPlug {
		gpa, ok := g.lowestUnplugged()
		if !ok {
			break
		}
		if err := g.dev.Plug(gpa); err != nil {
			return change, err
		}
		if g.OnPlug != nil {
			g.OnPlug(gpa, SubBlockSize)
		}
		change += SubBlockSize
	}
	for g.dev.PluggedSize() > g.dev.RequestedSize() {
		gpa, ok := g.highestPlugged()
		if !ok {
			break
		}
		if err := g.dev.Unplug(gpa); err != nil {
			return change, err
		}
		if g.OnUnplug != nil {
			g.OnUnplug(gpa, SubBlockSize)
		}
		change -= SubBlockSize
	}
	return change, nil
}

func (g *GuestDriver) lowestUnplugged() (memdef.GPA, bool) {
	for i, p := range g.dev.plugged {
		if !p {
			return g.dev.regionAddr + memdef.GPA(uint64(i)*SubBlockSize), true
		}
	}
	return 0, false
}

func (g *GuestDriver) highestPlugged() (memdef.GPA, bool) {
	for i := len(g.dev.plugged) - 1; i >= 0; i-- {
		if g.dev.plugged[i] {
			return g.dev.regionAddr + memdef.GPA(uint64(i)*SubBlockSize), true
		}
	}
	return 0, false
}

// UnplugSubBlock is the paper's first driver modification: release the
// specific sub-block containing gpa to the host, regardless of the
// hypervisor's requested size.
func (g *GuestDriver) UnplugSubBlock(gpa memdef.GPA) error {
	base := memdef.HugeBase(gpa)
	if err := g.dev.Unplug(base); err != nil {
		return err
	}
	if g.OnUnplug != nil {
		g.OnUnplug(base, SubBlockSize)
	}
	return nil
}
