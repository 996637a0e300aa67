// Package verify is the toolchain's static correctness net: a machine-code
// verifier and schedule legality checker for the programs the compiler
// emits. The paper's result rests on the claim that the reorganized code is
// equivalent to the original ("the resulting code is reorganized so that
// the stall time will be minimized", §3); this package checks the half of
// that claim that is decidable statically, in the style of translation
// validation:
//
//   - Structural well-formedness (structural.go): opcode and operand arity
//     and register-file agreement, register indices inside the machine
//     description's temporary/home split, branch and call targets that
//     resolve to real labels inside the right function, no fall-through off
//     the end of a function, every instruction classified into one of the
//     fourteen classes, and memory annotations present exactly on memory
//     instructions.
//
//   - Dataflow lints (dataflow.go): must-reach definitions and liveness
//     over the machine-level CFG flag uses of temporaries with no reaching
//     definition, temporaries read after an intervening call clobbered them
//     (the register allocator must spill call-crossing values), and dead
//     stores to temporaries.
//
//   - Schedule legality (schedule.go): the basic-block dependence graph is
//     recomputed on the pre-schedule order with the scheduler's own
//     dependence analysis (sched.Graph) and the post-schedule
//     permutation is checked to preserve every RAW/WAR/WAW and memory edge.
//
//   - Static timing (timing.go): the cross-check oracle over the static
//     timing analysis (internal/statictime) — a simulated run's minor
//     cycles must fall inside the analyzer's [lower, upper] bounds
//     computed from the run's own dynamic instruction counts, and the
//     analysis itself must be internally consistent (a proven exact span
//     can never undercut its own lower bound).
//
// Diagnostics carry a stable code, a severity, and the name of the pass
// that introduced the violation, so a failing compilation pinpoints the
// guilty pass. compiler.Options.Verify runs these checks after every pass;
// tlc -verify prints every diagnostic, warnings included.
package verify

import (
	"fmt"
	"strings"
)

// Severity grades a diagnostic. Errors mean the program is wrong or the
// toolchain broke an invariant; warnings flag suspicious but semantically
// harmless code (registers reset to zero, so e.g. a dead store computes a
// well-defined, merely useless, value).
type Severity uint8

// Severity levels.
const (
	SevWarning Severity = iota
	SevError
)

// String names the severity.
func (s Severity) String() string {
	if s == SevError {
		return "error"
	}
	return "warning"
}

// Code is a stable diagnostic identifier: V1xx structural, V2xx dataflow,
// V3xx schedule legality, V4xx static timing.
type Code string

// Diagnostic codes.
const (
	// Structural (machine-code verifier).
	CodeBadEntry    Code = "V101" // entry point out of range or not a label
	CodeBadOpcode   Code = "V102" // opcode outside the instruction set
	CodeBadOperand  Code = "V103" // operand arity or register-file mismatch
	CodeBadRegSplit Code = "V104" // register outside conventions and the temp/home split
	CodeBadTarget   Code = "V105" // branch target out of range, unlabeled, or cross-function
	CodeBadCall     Code = "V106" // call target is not a function entry label
	CodeFallthrough Code = "V107" // control falls off the end of a function
	CodeBadClass    Code = "V108" // instruction not classified into one of the 14 classes
	CodeBadMemAnnot Code = "V109" // memory annotation missing, spurious, or wrong length

	// Dataflow lints.
	CodeUseBeforeDef Code = "V201" // temporary read with no reaching definition
	CodeCallClobber  Code = "V202" // temporary read after a call clobbered it
	CodeDeadStore    Code = "V203" // temporary written but never read (warning)

	// Schedule legality.
	CodeSchedContent Code = "V301" // region is not a permutation of its pre-schedule content
	CodeSchedDep     Code = "V302" // dependence edge inverted by the schedule
	CodeSchedShape   Code = "V303" // program shape changed (length, barriers, data)

	// Static timing oracle (timing.go).
	CodeTimingBelowLower Code = "V401" // simulated cycles below the static lower bound
	CodeTimingAboveUpper Code = "V402" // simulated cycles above the static upper bound
	CodeTimingInternal   Code = "V403" // static timing analysis internally inconsistent
)

// AllCodes lists every diagnostic code the package can emit, in numeric
// order. The negative test suite uses it to prove each code has a test that
// triggers it.
func AllCodes() []Code {
	return []Code{
		CodeBadEntry, CodeBadOpcode, CodeBadOperand, CodeBadRegSplit,
		CodeBadTarget, CodeBadCall, CodeFallthrough, CodeBadClass,
		CodeBadMemAnnot,
		CodeUseBeforeDef, CodeCallClobber, CodeDeadStore,
		CodeSchedContent, CodeSchedDep, CodeSchedShape,
		CodeTimingBelowLower, CodeTimingAboveUpper, CodeTimingInternal,
	}
}

// Diagnostic is one verifier finding.
type Diagnostic struct {
	Code     Code
	Severity Severity
	// Pass names the compiler pass after which the violation was first
	// observed ("codegen", "sched", ...); empty for standalone checks.
	Pass string
	// Func is the enclosing function label, if known.
	Func string
	// Index is the offending instruction's index in the program, or -1 for
	// program-level findings.
	Index int
	// Instr is the disassembly of the offending instruction.
	Instr string
	// Msg describes the violation.
	Msg string
}

// String renders the diagnostic on one line:
//
//	V201 error: main+12 `add r12, r10, r11`: r10 read with no reaching definition [pass sched]
func (d Diagnostic) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s: ", d.Code, d.Severity)
	switch {
	case d.Func != "" && d.Index >= 0:
		fmt.Fprintf(&b, "%s@%d ", d.Func, d.Index)
	case d.Func != "":
		fmt.Fprintf(&b, "%s ", d.Func)
	case d.Index >= 0:
		fmt.Fprintf(&b, "@%d ", d.Index)
	}
	if d.Instr != "" {
		fmt.Fprintf(&b, "`%s`: ", d.Instr)
	}
	b.WriteString(d.Msg)
	if d.Pass != "" {
		fmt.Fprintf(&b, " [pass %s]", d.Pass)
	}
	return b.String()
}

// Error is the error returned when verification finds error-severity
// diagnostics. It carries every diagnostic (warnings included) so callers
// can render the full report.
type Error struct {
	Diags []Diagnostic
}

// Error summarizes the first error diagnostic and the total count.
func (e *Error) Error() string {
	first := ""
	errs := 0
	for _, d := range e.Diags {
		if d.Severity != SevError {
			continue
		}
		if errs == 0 {
			first = d.String()
		}
		errs++
	}
	if errs == 1 {
		return "verify: " + first
	}
	return fmt.Sprintf("verify: %s (and %d more errors)", first, errs-1)
}

// AsError wraps the diagnostics in an *Error if any of them is
// error-severity, and returns nil otherwise.
func AsError(diags []Diagnostic) error {
	for _, d := range diags {
		if d.Severity == SevError {
			return &Error{Diags: diags}
		}
	}
	return nil
}

// Errors filters the slice to error-severity diagnostics.
func Errors(diags []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if d.Severity == SevError {
			out = append(out, d)
		}
	}
	return out
}
