// Package sim provides the deterministic virtual-time substrate of the
// reproduction: a discrete-event timeline onto which decoder executions
// record their operations (Huffman chunks, dispatches, transfers, kernels,
// CPU tiles). Resources execute their tasks serially in submission order;
// a task additionally waits for its dependencies. The resulting schedule
// replaces the paper's hardware timestamp counters and OpenCL event
// profiler, making every figure reproducible on any host.
package sim

import (
	"fmt"
	"sort"
)

// Standard resource names used by the decoder executions.
const (
	ResCPU = "cpu"       // the host thread running Huffman + CPU tiles
	ResGPU = "gpu.queue" // the device's in-order command queue (kernels + DMA)
)

// Kind classifies tasks for breakdown reports (Figure 9).
type Kind int

const (
	KindHuffman Kind = iota
	KindDispatch
	KindHostToDevice
	KindIDCT
	KindUpsample
	KindColor
	KindMergedKernel
	KindDeviceToHost
	KindCPUParallel
	KindOther
)

var kindNames = map[Kind]string{
	KindHuffman:      "Huffman",
	KindDispatch:     "Dispatch",
	KindHostToDevice: "HostToDevice",
	KindIDCT:         "IDCT",
	KindUpsample:     "Upsampling",
	KindColor:        "ColorConversion",
	KindMergedKernel: "MergedKernel",
	KindDeviceToHost: "DeviceToHost",
	KindCPUParallel:  "CPUParallel",
	KindOther:        "Other",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Task is one scheduled operation on the timeline.
type Task struct {
	ID       int
	Label    string
	Resource string
	Kind     Kind
	Cost     float64 // virtual nanoseconds
	Start    float64
	End      float64
	deps     []*Task
}

// Timeline accumulates tasks and computes their schedule incrementally.
type Timeline struct {
	tasks     []*Task
	resources map[string]float64 // next free time per resource
}

// New returns an empty timeline at virtual time zero.
func New() *Timeline {
	return &Timeline{resources: make(map[string]float64)}
}

// Add schedules a task on resource with the given cost after all deps have
// finished, and returns it. Tasks on the same resource run in submission
// order (an in-order queue), which models both a single CPU control thread
// and an in-order OpenCL command queue.
func (tl *Timeline) Add(resource string, kind Kind, label string, cost float64, deps ...*Task) *Task {
	if cost < 0 {
		cost = 0
	}
	start := tl.resources[resource]
	for _, d := range deps {
		if d == nil {
			continue
		}
		if d.End > start {
			start = d.End
		}
	}
	t := &Task{
		ID:       len(tl.tasks),
		Label:    label,
		Resource: resource,
		Kind:     kind,
		Cost:     cost,
		Start:    start,
		End:      start + cost,
		deps:     deps,
	}
	tl.resources[resource] = t.End
	tl.tasks = append(tl.tasks, t)
	return t
}

// Makespan returns the end time of the last task.
func (tl *Timeline) Makespan() float64 {
	var m float64
	for _, t := range tl.tasks {
		if t.End > m {
			m = t.End
		}
	}
	return m
}

// Tasks returns the scheduled tasks in submission order.
func (tl *Timeline) Tasks() []*Task { return tl.tasks }

// TotalByKind sums task costs per kind (the stacked bars of Figure 9).
func (tl *Timeline) TotalByKind() map[Kind]float64 {
	out := make(map[Kind]float64)
	for _, t := range tl.tasks {
		out[t.Kind] += t.Cost
	}
	return out
}

// BusyTime returns the total busy time of one resource.
func (tl *Timeline) BusyTime(resource string) float64 {
	var s float64
	for _, t := range tl.tasks {
		if t.Resource == resource {
			s += t.Cost
		}
	}
	return s
}

// KindTotal returns the total cost of tasks of one kind.
func (tl *Timeline) KindTotal(k Kind) float64 {
	var s float64
	for _, t := range tl.tasks {
		if t.Kind == k {
			s += t.Cost
		}
	}
	return s
}

// Breakdown is a sorted (kind, total) listing for reports.
type Breakdown struct {
	Kind  Kind
	Total float64
}

// SortedBreakdown returns per-kind totals sorted by kind.
func (tl *Timeline) SortedBreakdown() []Breakdown {
	m := tl.TotalByKind()
	out := make([]Breakdown, 0, len(m))
	for k, v := range m {
		out = append(out, Breakdown{k, v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Kind < out[j].Kind })
	return out
}

// Validate checks the structural invariants of the schedule: no task
// starts before a dependency ends, and tasks on one resource do not
// overlap. It returns the first violation found.
func (tl *Timeline) Validate() error {
	lastEnd := make(map[string]float64)
	byRes := make(map[string][]*Task)
	for _, t := range tl.tasks {
		for _, d := range t.deps {
			if d != nil && t.Start < d.End {
				return fmt.Errorf("sim: task %d (%s) starts %.1f before dep %d ends %.1f",
					t.ID, t.Label, t.Start, d.ID, d.End)
			}
		}
		if t.End < t.Start {
			return fmt.Errorf("sim: task %d ends before it starts", t.ID)
		}
		if t.Start < lastEnd[t.Resource] {
			return fmt.Errorf("sim: task %d overlaps predecessor on %s", t.ID, t.Resource)
		}
		lastEnd[t.Resource] = t.End
		byRes[t.Resource] = append(byRes[t.Resource], t)
	}
	return nil
}
