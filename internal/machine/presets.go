package machine

import (
	"fmt"
	"strconv"
	"strings"

	"ilp/internal/isa"
)

// Default register-file division used throughout §4 of the paper: "In this
// comparison we used 16 registers for expression temporaries and 26 for
// global register allocation."
const (
	DefaultTemps = 16
	DefaultHomes = 26
	// WideTemps is the enlarged temporary pool used in the unrolling study
	// ("we have only forty temporary registers available", §4.4).
	WideTemps = 40
)

// uniformLatency fills every class with lat minor cycles.
func uniformLatency(lat int) [isa.NumClasses]int {
	var l [isa.NumClasses]int
	for i := range l {
		l[i] = lat
	}
	return l
}

// perClassUnits builds one fully pipelined unit per instruction class with
// the given multiplicity — the "duplicate all functional units n times"
// option of §2.3.2, which makes class conflicts impossible.
func perClassUnits(multiplicity int) []FUnit {
	units := make([]FUnit, 0, isa.NumClasses)
	for _, cl := range isa.Classes() {
		units = append(units, FUnit{
			Name:         cl.String(),
			Classes:      []isa.Class{cl},
			Multiplicity: multiplicity,
			IssueLatency: 1,
		})
	}
	return units
}

func withDefaultRegs(c *Config) *Config {
	c.IntTemps, c.IntHomes = DefaultTemps, DefaultHomes
	c.FPTemps, c.FPHomes = DefaultTemps, DefaultHomes
	c.TakenBranchEndsGroup = true
	return c
}

// Base returns the base machine of §2.1: one instruction issued per cycle,
// simple operation latency of one cycle, so the instruction-level
// parallelism required to fully utilize it is one.
func Base() *Config {
	return withDefaultRegs(&Config{
		Name:       "base",
		IssueWidth: 1,
		Degree:     1,
		Latency:    uniformLatency(1),
		Units:      perClassUnits(1),
	})
}

// IdealSuperscalar returns an ideal (class-conflict-free) superscalar
// machine of degree n, per §2.3: n instructions issued per cycle, simple
// operation latency of one cycle, every functional unit duplicated n times.
func IdealSuperscalar(n int) *Config {
	if n < 1 {
		panic(fmt.Sprintf("machine: superscalar degree %d < 1", n))
	}
	return withDefaultRegs(&Config{
		Name:       fmt.Sprintf("superscalar-%d", n),
		IssueWidth: n,
		Degree:     1,
		Latency:    uniformLatency(1),
		Units:      perClassUnits(n),
	})
}

// Superpipelined returns a superpipelined machine of degree m, per §2.4:
// one instruction issued per (minor) cycle, the cycle time is 1/m of the
// base machine, and a simple operation takes m minor cycles (= 1 base
// cycle), since "given the same implementation technology it must take m
// cycles in the superpipelined machine".
func Superpipelined(m int) *Config {
	if m < 1 {
		panic(fmt.Sprintf("machine: superpipelining degree %d < 1", m))
	}
	return withDefaultRegs(&Config{
		Name:       fmt.Sprintf("superpipelined-%d", m),
		IssueWidth: 1,
		Degree:     m,
		Latency:    uniformLatency(m),
		Units:      perClassUnits(1),
	})
}

// SuperpipelinedSuperscalar returns a superpipelined superscalar machine of
// degree (n, m), per §2.5: n instructions per minor cycle, cycle time 1/m of
// the base machine, simple operation latency m minor cycles. Full
// utilization requires an instruction-level parallelism of n*m.
func SuperpipelinedSuperscalar(n, m int) *Config {
	if n < 1 || m < 1 {
		panic(fmt.Sprintf("machine: degree (%d,%d) invalid", n, m))
	}
	return withDefaultRegs(&Config{
		Name:       fmt.Sprintf("supersuper-%d-%d", n, m),
		IssueWidth: n,
		Degree:     m,
		Latency:    uniformLatency(m),
		Units:      perClassUnits(n),
	})
}

// SuperscalarWithConflicts returns a superscalar machine built the second
// way of §2.3.2: "duplicate only the register ports, bypasses, busses, and
// instruction decode logic" — the issue width is n but every functional
// unit has a single copy, so class conflicts stall issue whenever two
// instructions of the same class could otherwise go together.
func SuperscalarWithConflicts(n int) *Config {
	c := IdealSuperscalar(n)
	c.Name = fmt.Sprintf("superscalar-%d-conflicts", n)
	for i := range c.Units {
		c.Units[i].Multiplicity = 1
	}
	return c
}

// VLIW returns a VLIW machine of the given width, per §2.3.1: "in terms of
// run time exploitation of instruction-level parallelism, the superscalar
// and VLIW will have similar characteristics", so its timing model is the
// ideal superscalar's. The differences the paper lists are static: decode
// simplicity and code density — a VLIW instruction word always carries
// `width` operation slots, used or not, which VLIWCodeWords quantifies.
func VLIW(width int) *Config {
	c := IdealSuperscalar(width)
	c.Name = fmt.Sprintf("vliw-%d", width)
	return c
}

// VLIWCodeWords estimates the static code size, in instruction words, of
// packing a program whose dynamic issue groups are given (as a count of
// groups) onto a VLIW of the given width: every group costs one full-width
// word. A superscalar encodes the same schedule in `instructions` words.
// This is the §2.3.1 code-density comparison.
func VLIWCodeWords(groups int64, width int) int64 {
	return groups * int64(width)
}

// Underpipelined returns the underpipelined machine of Figure 2-2: its
// cycle time is twice the latency of a simple operation, modeled as a
// degree-1/2 machine — one instruction per cycle where each cycle is two
// base cycles long. We express it as a Degree-1 machine whose every
// latency is 1 but which can only complete an operation every other base
// cycle, i.e. issue latency 2 on every unit (Figure 2-3's variant). Both of
// the paper's underpipelined variants halve base-machine performance.
func Underpipelined() *Config {
	c := withDefaultRegs(&Config{
		Name:       "underpipelined",
		IssueWidth: 1,
		Degree:     1,
		Latency:    uniformLatency(2),
		Units:      perClassUnits(1),
	})
	for i := range c.Units {
		c.Units[i].IssueLatency = 2
	}
	return c
}

// MultiTitan returns a model of the DEC WRL MultiTitan [9], "a slightly
// superpipelined machine": ALU operations are one cycle, loads, stores and
// branches two cycles, and all floating-point operations three cycles
// (§2.7, Table 2-1). Like the real machine, integer multiply and divide
// execute in the floating-point coprocessor with longer latencies.
func MultiTitan() *Config {
	c := withDefaultRegs(&Config{
		Name:       "MultiTitan",
		IssueWidth: 1,
		Degree:     1,
		Units:      perClassUnits(1),
	})
	c.Latency = [isa.NumClasses]int{
		isa.ClassLogical:   1,
		isa.ClassShift:     1,
		isa.ClassAddSub:    1,
		isa.ClassIntMul:    4,  // via the FP multiplier
		isa.ClassIntDiv:    12, // via the FP divider
		isa.ClassLoad:      2,
		isa.ClassStore:     2,
		isa.ClassBranch:    2,
		isa.ClassJump:      2,
		isa.ClassFPAddSub:  3,
		isa.ClassFPMul:     3,
		isa.ClassFPDiv:     12,
		isa.ClassFPSpecial: 20,
		isa.ClassMove:      1,
	}
	return c
}

// CRAY1 returns a model of the CRAY-1 scalar pipeline, with the Table 2-1
// latencies: logical 1, shift 2, add/sub 3, load 11, store 1, branch 3,
// FP 7. Its functional units are pipelined (issue latency 1), like the
// CDC 7600 lineage the paper cites. Its average degree of superpipelining
// over the paper's instruction mix is 4.4.
func CRAY1() *Config {
	c := withDefaultRegs(&Config{
		Name:       "CRAY-1",
		IssueWidth: 1,
		Degree:     1,
		Units:      perClassUnits(1),
	})
	c.Latency = [isa.NumClasses]int{
		isa.ClassLogical:   1,
		isa.ClassShift:     2,
		isa.ClassAddSub:    3,
		isa.ClassIntMul:    7,  // via the FP multiplier
		isa.ClassIntDiv:    29, // reciprocal-approximation sequence
		isa.ClassLoad:      11,
		isa.ClassStore:     1,
		isa.ClassBranch:    3,
		isa.ClassJump:      3,
		isa.ClassFPAddSub:  7,
		isa.ClassFPMul:     7,
		isa.ClassFPDiv:     14, // reciprocal approximation
		isa.ClassFPSpecial: 25,
		isa.ClassMove:      1,
	}
	return c
}

// CRAY1Issue returns the CRAY-1 model widened to issue up to n instructions
// per cycle, with functional units duplicated n times — the Figure 4-4
// experiment, which the paper ran both with actual latencies and with all
// latencies forced to one (unitLatencies) to reproduce the mistaken
// methodology of [1].
func CRAY1Issue(n int, unitLatencies bool) *Config {
	c := CRAY1()
	c.Name = fmt.Sprintf("CRAY-1-issue%d", n)
	c.IssueWidth = n
	c.Units = perClassUnits(n)
	if unitLatencies {
		c.Name += "-unitlat"
		c.Latency = uniformLatency(1)
	}
	return c
}

// TableMachines returns the Table 2-1 rows: the machine configurations
// whose average degree of superpipelining the paper reports.
func TableMachines() []*Config {
	return []*Config{MultiTitan(), CRAY1()}
}

// ByName parses a command line's machine name: base, multititan (titan),
// cray1 (cray-1, cray), underpipelined, superscalar:N (ss), superpipelined:M
// (sp), supersuper:N:M (ssp) or conflicts:N, case-insensitively. Omitted
// degrees default to 4 (2 and 2 for supersuper). A degree must be an
// integer ≥ 1, and a name takes no more degrees than its machine has.
func ByName(name string) (*Config, error) {
	parts := strings.Split(strings.ToLower(name), ":")
	degrees := func(n int, def ...int) ([]int, error) {
		if len(parts)-1 > n {
			return nil, fmt.Errorf("machine %q: %s takes at most %d degree(s)", name, parts[0], n)
		}
		out := append([]int(nil), def...)
		for i, f := range parts[1:] {
			v, err := strconv.Atoi(f)
			if err != nil || v < 1 {
				return nil, fmt.Errorf("machine %q: degree %q is not an integer ≥ 1", name, f)
			}
			out[i] = v
		}
		return out, nil
	}
	var d []int
	var err error
	switch parts[0] {
	case "base", "":
		_, err = degrees(0)
		return Base(), err
	case "multititan", "titan":
		_, err = degrees(0)
		return MultiTitan(), err
	case "cray1", "cray-1", "cray":
		_, err = degrees(0)
		return CRAY1(), err
	case "underpipelined":
		_, err = degrees(0)
		return Underpipelined(), err
	case "superscalar", "ss":
		if d, err = degrees(1, 4); err != nil {
			return nil, err
		}
		return IdealSuperscalar(d[0]), nil
	case "superpipelined", "sp":
		if d, err = degrees(1, 4); err != nil {
			return nil, err
		}
		return Superpipelined(d[0]), nil
	case "supersuper", "ssp":
		if d, err = degrees(2, 2, 2); err != nil {
			return nil, err
		}
		return SuperpipelinedSuperscalar(d[0], d[1]), nil
	case "conflicts":
		if d, err = degrees(1, 4); err != nil {
			return nil, err
		}
		return SuperscalarWithConflicts(d[0]), nil
	}
	return nil, fmt.Errorf("unknown machine %q", name)
}
