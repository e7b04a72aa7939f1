package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// CPU placement. The generator and the server share a small host; left
// to the scheduler, the generator's threads and the server's contend
// for the same CPUs and each run measures a different interleaving.
// The server is pinned to the last allowed CPU and the generator to the
// others, so each has its own CPU (given two or more).

// cpuMask is a sched_setaffinity mask for up to 1024 CPUs.
type cpuMask [16]uint64

func (m *cpuMask) set(cpu int)      { m[cpu/64] |= 1 << (cpu % 64) }
func (m *cpuMask) has(cpu int) bool { return m[cpu/64]&(1<<(cpu%64)) != 0 }

func getAffinity() (cpuMask, error) {
	var m cpuMask
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if e != 0 {
		return m, e
	}
	return m, nil
}

func setAffinity(tid int, m cpuMask) error {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if e != 0 {
		return e
	}
	return nil
}

// placement splits the allowed CPUs: the last one for the server, the
// rest for the generator. ok is false with fewer than two CPUs.
func placement() (gen cpuMask, srv int, ok bool) {
	all, err := getAffinity()
	if err != nil {
		return gen, -1, false
	}
	var cpus []int
	for c := 0; c < len(all)*64; c++ {
		if all.has(c) {
			cpus = append(cpus, c)
		}
	}
	if len(cpus) < 2 {
		return gen, -1, false
	}
	for _, c := range cpus[:len(cpus)-1] {
		gen.set(c)
	}
	return gen, cpus[len(cpus)-1], true
}

// pinSelf moves every thread of this process onto m (threads started
// later inherit it from their creators) and sizes GOMAXPROCS to it.
func pinSelf(m cpuMask) error {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		if err := setAffinity(tid, m); err != nil {
			return fmt.Errorf("pin thread %d: %w", tid, err)
		}
	}
	n := 0
	for _, w := range m {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	runtime.GOMAXPROCS(n)
	return nil
}

// execPinned is the launcher mode: pin this thread to cpu, then replace
// the process with argv. The exec'd program starts with the pinned
// thread's mask, so all its threads stay on cpu.
func execPinned(cpu int, argv []string) error {
	runtime.LockOSThread()
	var m cpuMask
	m.set(cpu)
	if err := setAffinity(0, m); err != nil {
		return fmt.Errorf("pin to cpu %d: %w", cpu, err)
	}
	return syscall.Exec(argv[0], argv, os.Environ())
}
