package explore

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"

	"upim/internal/artifact"
	"upim/internal/config"
	"upim/internal/engine"
	"upim/internal/machine"
)

// KeyOf returns the content address of a simulation point: a SHA-256 over
// the store format version and the point's canonical JSON — benchmark,
// full hardware configuration, DPU count, dataset scale and watchdog. Two
// points share a key exactly when the simulator would produce identical
// results for them (the simulator is deterministic), which is what lets
// interrupted or repeated explorations reuse each other's finished points.
//
// The canonical JSON is what encoding/json's Marshal writes for
// {"format":4,"point":p}, appended field by field here instead of
// reflected; key_test.go holds the two byte-identical, so a stored field a
// struct gains without a line below fails there, not in a store.
func KeyOf(p engine.Point) string {
	var buf [2048]byte
	sum := sha256.Sum256(appendKeyJSON(buf[:0], &p))
	return hex.EncodeToString(sum[:])
}

// appendKeyJSON appends the canonical JSON a point's key hashes.
func appendKeyJSON(b []byte, p *engine.Point) []byte {
	b = strconv.AppendInt(append(b, `{"format":`...), storeFormat, 10)
	b = artifact.AppendJSONString(append(b, `,"point":{"Benchmark":`...), p.Benchmark)
	b = appendConfigJSON(append(b, `,"Config":`...), &p.Config)
	b = jsonInt(b, `,"DPUs":`, p.DPUs)
	b = jsonInt(b, `,"Scale":`, int(p.Scale))
	b = strconv.AppendUint(append(b, `,"Watchdog":`...), p.Watchdog, 10)
	if p.Machine != nil {
		b = appendMachineJSON(append(b, `,"Machine":`...), p.Machine)
	}
	return append(b, "}}"...)
}

func appendConfigJSON(b []byte, c *config.Config) []byte {
	b = jsonInt(b, `{"FreqMHz":`, c.FreqMHz)
	b = jsonInt(b, `,"PipelineStages":`, c.PipelineStages)
	b = jsonInt(b, `,"RevolverCycles":`, c.RevolverCycles)
	b = jsonInt(b, `,"WRAMBytes":`, c.WRAMBytes)
	b = jsonInt(b, `,"IRAMBytes":`, c.IRAMBytes)
	b = jsonInt(b, `,"AtomicLocks":`, c.AtomicLocks)
	b = jsonInt(b, `,"NumTasklets":`, c.NumTasklets)
	b = jsonInt(b, `,"MaxTasklets":`, c.MaxTasklets)
	b = jsonInt(b, `,"StackBytes":`, c.StackBytes)
	b = jsonInt(b, `,"HeapBytes":`, c.HeapBytes)
	b = jsonInt(b, `,"WRAMBytesPerCycle":`, c.WRAMBytesPerCycle)
	b = jsonInt(b, `,"MRAMBytes":`, c.MRAMBytes)
	b = jsonInt(b, `,"DRAMFreqMHz":`, c.DRAMFreqMHz)
	b = jsonInt(b, `,"RowBytes":`, c.RowBytes)
	b = jsonInt(b, `,"TRCD":`, c.TRCD)
	b = jsonInt(b, `,"TRAS":`, c.TRAS)
	b = jsonInt(b, `,"TRP":`, c.TRP)
	b = jsonInt(b, `,"TCL":`, c.TCL)
	b = jsonInt(b, `,"TBL":`, c.TBL)
	b = jsonInt(b, `,"BurstBytes":`, c.BurstBytes)
	b = jsonInt(b, `,"LinkBytesPerCycle":`, c.LinkBytesPerCycle)
	b = jsonBool(b, `,"RefreshEnable":`, c.RefreshEnable)
	b = jsonInt(b, `,"TREFI":`, c.TREFI)
	b = jsonInt(b, `,"TRFC":`, c.TRFC)
	b = jsonBool(b, `,"MemSchedulerFRFCFS":`, c.MemSchedulerFRFCFS)
	b = jsonFloat(b, `,"CPUToDPUBytesPerSec":`, c.CPUToDPUBytesPerSec)
	b = jsonFloat(b, `,"DPUToCPUBytesPerSec":`, c.DPUToCPUBytesPerSec)
	b = jsonBool(b, `,"Forwarding":`, c.Forwarding)
	b = jsonBool(b, `,"UnifiedRF":`, c.UnifiedRF)
	b = jsonInt(b, `,"IssueWidth":`, c.IssueWidth)
	b = jsonInt(b, `,"FwdLatALU":`, c.FwdLatALU)
	b = jsonInt(b, `,"FwdLatMulDiv":`, c.FwdLatMulDiv)
	b = jsonInt(b, `,"FwdLatLoad":`, c.FwdLatLoad)
	b = jsonInt(b, `,"Mode":`, int(c.Mode))
	b = appendCacheJSON(append(b, `,"ICache":`...), &c.ICache)
	b = appendCacheJSON(append(b, `,"DCache":`...), &c.DCache)
	b = jsonBool(b, `,"MMU":{"Enable":`, c.MMU.Enable)
	b = jsonInt(b, `,"PageBytes":`, c.MMU.PageBytes)
	b = jsonInt(b, `,"TLBSize":`, c.MMU.TLBSize)
	b = jsonInt(b, `,"FaultHandlerNs":`, c.MMU.FaultHandlerNs)
	b = jsonBool(b, `,"Prefault":`, c.MMU.Prefault)
	b = jsonInt(b, `},"SIMTWidth":`, c.SIMTWidth)
	b = jsonBool(b, `,"SIMTCoalesce":`, c.SIMTCoalesce)
	b = jsonInt(b, `,"TimelineWindow":`, c.TimelineWindow)
	b = jsonBool(b, `,"TraceIssues":`, c.TraceIssues)
	return append(b, '}')
}

func appendCacheJSON(b []byte, c *config.CacheConfig) []byte {
	b = jsonInt(b, `{"SizeBytes":`, c.SizeBytes)
	b = jsonInt(b, `,"Ways":`, c.Ways)
	b = jsonInt(b, `,"LineBytes":`, c.LineBytes)
	b = jsonBool(b, `,"LoadCoalescing":`, c.LoadCoalescing)
	b = jsonBool(b, `,"WriteAllocate":`, c.WriteAllocate)
	return append(b, '}')
}

func appendMachineJSON(b []byte, d *machine.Desc) []byte {
	b = jsonInt(b, `{"format":`, d.Format)
	b = artifact.AppendJSONString(append(b, `,"arch":`...), d.Arch)
	b = jsonInt(b, `,"channels":`, d.Channels)
	b = jsonInt(b, `,"ranks_per_channel":`, d.RanksPerChannel)
	b = jsonInt(b, `,"pus_per_rank":`, d.PUsPerRank)
	b = jsonInt(b, `,"macs_per_pu":`, d.MACsPerPU)
	b = jsonInt(b, `,"issue_width":`, d.IssueWidth)
	b = jsonInt(b, `,"freq_mhz":`, d.FreqMHz)
	b = append(b, `,"mem_levels":`...)
	if d.MemLevels == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, l := range d.MemLevels {
			if i > 0 {
				b = append(b, ',')
			}
			b = artifact.AppendJSONString(append(b, `{"name":`...), l.Name)
			b = strconv.AppendInt(append(b, `,"bytes":`...), l.Bytes, 10)
			b = jsonInt(b, `,"bytes_per_cycle":`, l.BytesPerCycle)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = jsonInt(b, `,"bank_groups":`, d.BankGroups)
	b = jsonInt(b, `,"banks_per_group":`, d.BanksPerGroup)
	b = jsonInt(b, `,"row_bytes":`, d.RowBytes)
	b = jsonInt(b, `,"column_bytes":`, d.ColumnBytes)
	b = jsonInt(b, `,"dram_freq_mhz":`, d.DRAMFreqMHz)
	b = jsonInt(b, `,"trcd":`, d.TRCD)
	b = jsonInt(b, `,"trp":`, d.TRP)
	b = jsonInt(b, `,"tcl":`, d.TCL)
	b = jsonInt(b, `,"tbl":`, d.TBL)
	b = jsonInt(b, `,"tccd_l":`, d.TCCDL)
	b = jsonInt(b, `,"tccd_s":`, d.TCCDS)
	if d.CommandMode != "" {
		b = artifact.AppendJSONString(append(b, `,"command_mode":`...), d.CommandMode)
	}
	b = jsonFloat(b, `,"host_to_site_bps":`, d.HostToSiteBps)
	b = jsonFloat(b, `,"site_to_host_bps":`, d.SiteToHostBps)
	return append(b, '}')
}

// jsonInt, jsonBool and jsonFloat append one member: name is everything up
// to the value (separator, quoted name, colon), the value as encoding/json
// spells it.
func jsonInt(b []byte, name string, v int) []byte {
	return strconv.AppendInt(append(b, name...), int64(v), 10)
}

func jsonBool(b []byte, name string, v bool) []byte {
	return strconv.AppendBool(append(b, name...), v)
}

func jsonFloat(b []byte, name string, v float64) []byte {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		// encoding/json refuses these, and a key cannot be made without them.
		panic(fmt.Sprintf("explore: a point key cannot carry %s = %v", name[2:len(name)-2], v))
	}
	return artifact.AppendJSONFloat(append(b, name...), v)
}
