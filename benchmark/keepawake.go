package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
)

// A processor of a virtual machine that has nothing to run halts, and
// the hypervisor gives it away; getting it back costs a millisecond or
// more on a busy host (on the reference host two goroutines of 7 ms each
// take 14 ms, not 7, when the second processor was idle). The closed
// loops never idle, so they never pay this. The open loop of
// service_mixed idles between arrivals by design and pays it on every
// arrival, every hand-over between goroutines and every parallel phase,
// and pays several times more during a slow spell of the host: its median
// latency moved six times as much as its CPU time did.
//
// While a service_mixed window runs, the runner therefore keeps every
// processor awake, the way idle=poll on the kernel command line would: a
// helper process holds one thread per processor, pinned to it, spinning
// under SCHED_IDLE, the scheduling class that runs only when the
// processor has nothing else and gives way at once when it has. The
// helper takes no time from the workload and is not part of its process,
// so its spinning is in none of the workload's figures. The other four
// workloads run without it: they leave no processor idle, and on the
// reference host batch_gallery is a sixth slower beside the helper.

// keepAwakeWorkload marks the args file of the helper process.
const keepAwakeWorkload = "keep_awake"

// keepAwake starts the helper and returns what stops it and waits for it
// to end. The helper also ends by itself when the runner dies, since it
// exits when its standard input closes. Where the helper cannot do its
// job (no SCHED_IDLE on this system) the run goes on without it and says
// so.
func (cfg *runConfig) keepAwake(dir string) (stop func()) {
	without := func(err error) func() {
		fmt.Fprintln(os.Stderr, "benchmark: no keep-awake helper, service_mixed runs on processors that halt when idle:", err)
		return func() {}
	}
	path, err := writeArgs(dir, childArgs{Workload: keepAwakeWorkload})
	if err != nil {
		return without(err)
	}
	cmd := exec.Command(cfg.exe, "-child", path)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return without(err)
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return without(err)
	}
	if err := cmd.Start(); err != nil {
		return without(err)
	}
	stop = func() {
		in.Close()
		_ = cmd.Wait()
	}
	// The helper writes one line when every thread spins.
	if _, err := bufio.NewReader(out).ReadString('\n'); err != nil {
		stop()
		return without(fmt.Errorf("it gave up: %w", err))
	}
	return stop
}

// runKeepAwake is the body of the helper process: one spinning thread
// per processor this process may run on, until standard input closes.
func runKeepAwake() error {
	cpus, err := allowedCPUs()
	if err != nil {
		return err
	}
	runtime.GOMAXPROCS(len(cpus) + 1)
	ready := make(chan error)
	for _, cpu := range cpus {
		go func(cpu int) {
			runtime.LockOSThread()
			err := idleClassOn(cpu)
			ready <- err
			if err != nil {
				return
			}
			for {
			}
		}(cpu)
	}
	for range cpus {
		// A thread that could not enter the idle class has not started to
		// spin, and the process leaves before any other takes time from
		// the workload.
		if err := <-ready; err != nil {
			return err
		}
	}
	fmt.Println("awake")
	_, _ = io.Copy(io.Discard, os.Stdin)
	return nil
}
