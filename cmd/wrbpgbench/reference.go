// The host speed reference. On a shared virtual machine the speed of
// the processor drifts by tens of percent over minutes, and every time
// a run measures drifts with it. So the end-to-end run also times a
// fixed piece of reference work between the slices of its timed phase
// and reports its times scaled to the speed at which that work takes
// refNominal. The reference is benchmark code on the standard library
// only, so no change to the server moves it. It runs while the clients
// are paused, on threads of its own, and is timed by those threads' CPU
// time, so server goroutines still running cannot lengthen it.

package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

const (
	// refSlices is how many slices the timed phase is cut into; the
	// reference runs before the first and after each.
	refSlices = 10
	// refNominal is one reference sample's thread CPU time at the
	// reference speed: about its median on the 2-vCPU Intel Xeon the
	// README's measurements come from.
	refNominal = 60 * time.Millisecond
	refCalls   = 60      // reference kernel calls per thread and sample
	refTable   = 1 << 20 // bytes of the table the kernel walks
	refSteps   = 10000   // links the kernel follows per call
)

// refDoc is the document the reference kernel round-trips through JSON.
type refDoc struct {
	Name  string           `json:"name"`
	Items []refItem        `json:"items"`
	Tags  map[string]int64 `json:"tags"`
}

type refItem struct {
	ID    int     `json:"id"`
	Label string  `json:"label"`
	Vals  []int64 `json:"vals"`
}

var (
	tableOnce sync.Once
	table     []byte
	tableErr  error
)

// refWalkTable returns the table the kernel walks: a random cycle of
// 4-byte links, mapped outside the Go heap so that it neither counts as
// live heap nor shifts the server's GC pacing.
func refWalkTable() ([]byte, error) {
	tableOnce.Do(func() {
		table, tableErr = syscall.Mmap(-1, 0, refTable, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if tableErr != nil {
			return
		}
		n := refTable / 4
		r := newRNG(0x7e4b)
		perm := make([]uint32, n)
		for i := range perm {
			perm[i] = uint32(i)
		}
		for i := n - 1; i > 0; i-- {
			j := r.intn(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		for i := range perm {
			binary.LittleEndian.PutUint32(table[4*perm[i]:], perm[(i+1)%n])
		}
	})
	return table, tableErr
}

// refSink keeps the kernel's results live, one slot per thread.
var refSink [clients]uint64

// refKernel is one unit of reference work: a JSON round trip of a
// fixed document, SHA-256 over a fixed buffer and a dependent walk
// over the table, which between them load the processor, the allocator
// and the memory system as serving requests does.
func refKernel(tab []byte, slot int) {
	refSink[slot] += refJSON() + refHash() + refWalk(tab)
}

func refJSON() uint64 {
	d := refDoc{Name: "reference", Tags: map[string]int64{}}
	for i := 0; i < 64; i++ {
		it := refItem{ID: i, Label: "item"}
		for j := 0; j < 16; j++ {
			it.Vals = append(it.Vals, int64(i*j*7919%1000))
		}
		d.Items = append(d.Items, it)
		d.Tags[strconv.Itoa(i)] = int64(i)
	}
	b, err := json.Marshal(&d)
	if err != nil {
		panic(err) // a fixed document of plain types always encodes
	}
	var e refDoc
	if err := json.Unmarshal(b, &e); err != nil {
		panic(err)
	}
	return uint64(len(e.Items))
}

func refHash() uint64 {
	var buf [1024]byte
	for i := 0; i < 90; i++ {
		s := sha256.Sum256(buf[:])
		buf[0] = s[0]
	}
	return uint64(buf[0])
}

func refWalk(tab []byte) uint64 {
	var j uint32
	for i := 0; i < refSteps; i++ {
		j = binary.LittleEndian.Uint32(tab[4*j:])
	}
	return uint64(j)
}

// threadCPU is the calling thread's CPU time, from the clock Linux
// keeps per thread in nanoseconds (getrusage's per-thread figure moves
// in scheduler ticks, too coarse for a 50 ms sample).
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// refSample runs the reference once on one thread per client and
// returns the threads' summed CPU time. It starts from a collected
// heap and holds the collector off while it runs, so the server's heap
// does not lengthen it; the next collection frees what it allocated.
func refSample() (time.Duration, error) {
	tab, err := refWalkTable()
	if err != nil {
		return 0, err
	}
	runtime.GC()
	gc := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gc)
	cpu := make([]time.Duration, clients)
	var wg sync.WaitGroup
	for c := range cpu {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			t0 := threadCPU()
			for i := 0; i < refCalls; i++ {
				refKernel(tab, c)
			}
			cpu[c] = threadCPU() - t0
		}(c)
	}
	wg.Wait()
	var sum time.Duration
	for _, d := range cpu {
		sum += d
	}
	return sum, nil
}
