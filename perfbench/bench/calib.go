package bench

import (
	"fmt"
	"runtime"
	"sort"
	"time"
)

// The machine this benchmark was built on is a virtual machine whose
// CPU speed, as the program sees it, moved by up to 2.5x over tens of
// minutes with the load on its host, also while the hypervisor stole
// little CPU time (README, "How a run makes steady figures"). Every run
// therefore also
// times a fixed calibration kernel that owes nothing to the program, and
// reports its times scaled by calibRefMS over the kernel's time in that
// run: a figure reads as it would on a machine where the kernel takes
// calibRefMS.

// calibRefMS is the kernel's 10th-percentile time on the reference
// machine, a quiet 2-vCPU KVM guest (Intel Xeon, Go 1.24, one P).
const calibRefMS = 0.875

// calibBlock is the number of kernel samples per calibration block.
const calibBlock = 40

// calibKernel is a fixed working set: sorting and summing floats, map
// lookups and a pointer chase through 1 MiB, the kinds of work the
// admission check and the servers do. It allocates nothing once built,
// so it neither triggers nor pays for garbage collection, and each block
// builds its own, so no run's heap figure holds it.
type calibKernel struct {
	xs, ys []float64
	idx    map[uint64]int32
	keys   []uint64
	walk   []uint32
}

func splitmix(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func newCalibKernel() *calibKernel {
	const floats, entries, walk = 8192, 2048, 1 << 18
	k := &calibKernel{
		xs: make([]float64, floats), ys: make([]float64, floats),
		idx: make(map[uint64]int32, entries), keys: make([]uint64, 2*entries),
		walk: make([]uint32, walk),
	}
	s := uint64(1)
	for i := 0; i < entries; i++ {
		key := splitmix(&s)
		k.idx[key] = int32(i)
		k.keys[2*i], k.keys[2*i+1] = key, splitmix(&s)
	}
	// One cycle through every slot of walk, in a shuffled order.
	perm := make([]uint32, walk)
	for i := range perm {
		perm[i] = uint32(i)
	}
	for i := len(perm) - 1; i > 0; i-- {
		j := int(splitmix(&s) % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i := range perm {
		k.walk[perm[i]] = perm[(i+1)%walk]
	}
	return k
}

// run does the kernel's work once and returns a value that depends on
// all of it.
func (k *calibKernel) run() float64 {
	s := uint64(7)
	for i := range k.xs {
		k.xs[i] = float64(splitmix(&s)>>11) / (1 << 53)
	}
	copy(k.ys, k.xs)
	sort.Float64s(k.ys)
	acc := 0.0
	for i, y := range k.ys {
		acc += y * k.xs[i]
	}
	hits := int32(0)
	for _, key := range k.keys {
		hits += k.idx[key]
	}
	p := uint32(0)
	for i := 0; i < len(k.walk)/8; i++ {
		p = k.walk[p]
	}
	return acc + float64(hits) + float64(p)
}

var calibSink float64

// calibrate times one block of kernel runs, after a forced collection so
// that no garbage-collection cycle runs beside them.
func (r *run) calibrate() {
	kernel := newCalibKernel()
	runtime.GC()
	for i := 0; i < calibBlock; i++ {
		t0 := time.Now()
		calibSink += kernel.run()
		r.calib.Add(time.Since(t0))
	}
}

// speedScale is the factor from this run's times to the reference
// speed: calibRefMS over the kernel's 10th-percentile time in the run.
func (r *run) speedScale() float64 {
	q := r.calib.Raw(0.1)
	if q <= 0 {
		return 1
	}
	fmt.Fprintf(r.out, "calibration: kernel p10=%.4fms p50=%.4fms n=%d; times scaled by %.4f to the reference %.4fms\n",
		q, r.calib.Raw(0.5), r.calib.N(), calibRefMS/q, calibRefMS)
	return calibRefMS / q
}
