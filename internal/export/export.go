// Package export serializes session reports and power traces to JSON
// and CSV, so downstream analysis (plotting the reproduced figures,
// diffing runs) can happen outside Go.
package export

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"harmonia/internal/daq"
	"harmonia/internal/session"
	"harmonia/internal/timeline"
)

// ReportJSON is the serialized form of a session report.
type ReportJSON struct {
	App     string          `json:"app"`
	Policy  string          `json:"policy"`
	TimeS   float64         `json:"time_s"`
	EnergyJ float64         `json:"energy_j"`
	AvgW    float64         `json:"avg_power_w"`
	ED2     float64         `json:"ed2"`
	Rails   RailsJSON       `json:"rails_energy_j"`
	Runs    []KernelRunJSON `json:"runs"`
}

// RailsJSON is the per-rail energy decomposition.
type RailsJSON struct {
	GPU   float64 `json:"gpu"`
	Mem   float64 `json:"mem"`
	Other float64 `json:"other"`
}

// KernelRunJSON is one serialized kernel invocation.
type KernelRunJSON struct {
	Kernel  string  `json:"kernel"`
	Iter    int     `json:"iter"`
	CUs     int     `json:"cus"`
	CUMHz   int     `json:"cu_mhz"`
	MemMHz  int     `json:"mem_mhz"`
	TimeS   float64 `json:"time_s"`
	CardW   float64 `json:"card_w"`
	VALUPct float64 `json:"valu_busy_pct"`
	MemPct  float64 `json:"mem_busy_pct"`
}

// Report converts a session report to its serializable form.
func Report(r *session.Report) ReportJSON {
	out := Header(r)
	for _, run := range r.Runs {
		out.Runs = append(out.Runs, KernelRunJSON{
			Kernel:  run.Kernel,
			Iter:    run.Iter,
			CUs:     run.Config.Compute.CUs,
			CUMHz:   int(run.Config.Compute.Freq),
			MemMHz:  int(run.Config.Memory.BusFreq),
			TimeS:   run.Result.Time,
			CardW:   run.Rails.Card(),
			VALUPct: run.Result.Counters.VALUBusy,
			MemPct:  run.Result.Counters.MemUnitBusy,
		})
	}
	return out
}

// Header is Report without the per-kernel rows: the whole-run numbers
// and the per-rail energy.
func Header(r *session.Report) ReportJSON {
	return ReportJSON{
		App:     r.App,
		Policy:  r.Policy,
		TimeS:   r.TotalTime(),
		EnergyJ: r.TotalEnergy(),
		AvgW:    r.AveragePower(),
		ED2:     r.ED2(),
		Rails:   RailsJSON{GPU: r.Energy.GPU, Mem: r.Energy.Mem, Other: r.Energy.Other},
	}
}

// Rows builds the per-kernel rows from a run's flight-recorder
// decisions. A boundary's decision holds the same values Report reads
// from the session report (kernel, iteration, the configuration the
// hardware ran, time, card power, busy counters), so the rows of a
// timeline that dropped no decision are Report's rows, bit for bit.
// No decisions give nil rows, as a report without runs does.
func Rows(decs []timeline.Decision) []KernelRunJSON {
	if len(decs) == 0 {
		return nil
	}
	out := make([]KernelRunJSON, len(decs))
	for i, d := range decs {
		out[i] = KernelRunJSON{
			Kernel:  d.Kernel,
			Iter:    d.Iter,
			CUs:     d.Config.CUs,
			CUMHz:   d.Config.CUMHz,
			MemMHz:  d.Config.MemMHz,
			TimeS:   d.TimeS,
			CardW:   d.CardW,
			VALUPct: d.VALUBusy,
			MemPct:  d.MemUnitBusy,
		}
	}
	return out
}

// WriteReportJSON writes a session report as indented JSON.
func WriteReportJSON(w io.Writer, r *session.Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(Report(r)); err != nil {
		return fmt.Errorf("export: encode report: %w", err)
	}
	return nil
}

// WriteRunsCSV writes the per-invocation rows of a report as CSV with a
// header line.
func WriteRunsCSV(w io.Writer, r *session.Report) error {
	cw := csv.NewWriter(w)
	header := []string{"kernel", "iter", "cus", "cu_mhz", "mem_mhz", "time_s", "card_w", "valu_busy_pct", "mem_busy_pct"}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("export: csv header: %w", err)
	}
	for _, run := range r.Runs {
		rec := []string{
			run.Kernel,
			strconv.Itoa(run.Iter),
			strconv.Itoa(run.Config.Compute.CUs),
			strconv.Itoa(int(run.Config.Compute.Freq)),
			strconv.Itoa(int(run.Config.Memory.BusFreq)),
			formatF(run.Result.Time),
			formatF(run.Rails.Card()),
			formatF(run.Result.Counters.VALUBusy),
			formatF(run.Result.Counters.MemUnitBusy),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("export: csv row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteTraceCSV writes the DAQ power-sample stream as CSV (time,
// per-rail watts, card watts) — the raw material of the paper's power
// plots.
func WriteTraceCSV(w io.Writer, trace []daq.Sample) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"time_s", "gpu_w", "mem_w", "other_w", "card_w"}); err != nil {
		return fmt.Errorf("export: csv header: %w", err)
	}
	for _, s := range trace {
		rec := []string{
			formatF(s.TimeS),
			formatF(s.Rails.GPU),
			formatF(s.Rails.Mem),
			formatF(s.Rails.Other),
			formatF(s.Rails.Card()),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("export: csv row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// TraceSampleJSON is one serialized DAQ power sample.
type TraceSampleJSON struct {
	TimeS  float64 `json:"time_s"`
	GPUW   float64 `json:"gpu_w"`
	MemW   float64 `json:"mem_w"`
	OtherW float64 `json:"other_w"`
	CardW  float64 `json:"card_w"`
}

// Trace converts a DAQ power-sample stream to its serializable form.
func Trace(trace []daq.Sample) []TraceSampleJSON {
	out := make([]TraceSampleJSON, len(trace))
	for i, s := range trace {
		out[i] = TraceSampleJSON{
			TimeS:  s.TimeS,
			GPUW:   s.Rails.GPU,
			MemW:   s.Rails.Mem,
			OtherW: s.Rails.Other,
			CardW:  s.Rails.Card(),
		}
	}
	return out
}

// WriteTraceJSON writes the DAQ power-sample stream as indented JSON —
// the HTTP-API counterpart of WriteTraceCSV.
func WriteTraceJSON(w io.Writer, trace []daq.Sample) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(Trace(trace)); err != nil {
		return fmt.Errorf("export: encode trace: %w", err)
	}
	return nil
}

func formatF(v float64) string { return strconv.FormatFloat(v, 'g', 9, 64) }
