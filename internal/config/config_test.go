package config

import (
	"strings"
	"testing"
)

func TestDefaultIsValid(t *testing.T) {
	c := Default()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultMatchesTable1(t *testing.T) {
	c := Default()
	if c.GPU.NumSMs != 16 {
		t.Errorf("NumSMs = %d, want 16", c.GPU.NumSMs)
	}
	if c.GPU.ThreadsPerSM != 1024 {
		t.Errorf("ThreadsPerSM = %d, want 1024", c.GPU.ThreadsPerSM)
	}
	if c.GPU.RegistersPerSM*4 != 256<<10 {
		t.Errorf("register file = %dB, want 256KB", c.GPU.RegistersPerSM*4)
	}
	if c.GPU.L1Bytes != 16<<10 || c.GPU.L1Ways != 4 {
		t.Errorf("L1 = %dB %d-way, want 16KB 4-way", c.GPU.L1Bytes, c.GPU.L1Ways)
	}
	if c.GPU.L2Bytes != 2<<20 || c.GPU.L2Ways != 16 {
		t.Errorf("L2 = %dB %d-way, want 2MB 16-way", c.GPU.L2Bytes, c.GPU.L2Ways)
	}
	if c.GPU.L1TLBEntries != 64 || c.GPU.L2TLBEntries != 1024 || c.GPU.L2TLBWays != 32 {
		t.Errorf("TLBs = %d/%d(%d-way)", c.GPU.L1TLBEntries, c.GPU.L2TLBEntries, c.GPU.L2TLBWays)
	}
	if c.GPU.MemLatency != 200 {
		t.Errorf("MemLatency = %d, want 200", c.GPU.MemLatency)
	}
	if c.UVM.FaultBufferEntries != 1024 {
		t.Errorf("FaultBufferEntries = %d, want 1024", c.UVM.FaultBufferEntries)
	}
	if c.UVM.PageBytes != 64<<10 {
		t.Errorf("PageBytes = %d, want 64KB", c.UVM.PageBytes)
	}
	if c.UVM.FaultHandlingUS != 20 {
		t.Errorf("FaultHandlingUS = %v, want 20", c.UVM.FaultHandlingUS)
	}
	if c.UVM.PCIeGBps != 15.75 {
		t.Errorf("PCIeGBps = %v, want 15.75", c.UVM.PCIeGBps)
	}
}

func TestFaultHandlingCycles(t *testing.T) {
	c := Default()
	if got := c.FaultHandlingCycles(); got != 20000 {
		t.Fatalf("20µs at 1GHz = %d cycles, want 20000", got)
	}
	c.UVM.FaultHandlingUS = 50
	if got := c.FaultHandlingCycles(); got != 50000 {
		t.Fatalf("50µs at 1GHz = %d cycles, want 50000", got)
	}
}

func TestPageTransferCycles(t *testing.T) {
	c := Default()
	got := c.PageTransferCycles()
	// 64KB / 15.75GB/s = 4161.0ns -> 4161 cycles at 1GHz.
	if got < 4100 || got > 4220 {
		t.Fatalf("page transfer = %d cycles, want ~4161", got)
	}
	c.Policy = BaselineCompressed
	comp := c.PageTransferCycles()
	if comp >= got || comp < got/3 {
		t.Fatalf("compressed transfer = %d, uncompressed = %d; want ~half", comp, got)
	}
}

func TestCapacityPages(t *testing.T) {
	c := Default()
	if got := c.CapacityPages(1000); got != 500 {
		t.Fatalf("capacity at ratio 0.5 of 1000 = %d, want 500", got)
	}
	c.UVM.OversubscriptionRatio = 1.0
	if got := c.CapacityPages(1000); got != 1000 {
		t.Fatalf("capacity at ratio 1.0 = %d, want 1000", got)
	}
	c.UVM.OversubscriptionRatio = 2.0
	if got := c.CapacityPages(1000); got != 1000 {
		t.Fatalf("capacity clamped = %d, want 1000", got)
	}
	c.UVM.MemoryPages = 77
	if got := c.CapacityPages(1000); got != 77 {
		t.Fatalf("explicit capacity = %d, want 77", got)
	}
	c.UVM.MemoryPages = 0
	c.UVM.OversubscriptionRatio = 0.0001
	if got := c.CapacityPages(10); got < 2 {
		t.Fatalf("capacity floor = %d, want >= 2", got)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"zero SMs", func(c *Config) { c.GPU.NumSMs = 0 }, "NumSMs"},
		{"bad warp multiple", func(c *Config) { c.GPU.ThreadsPerSM = 1000 }, "WarpSize"},
		{"warp 16", func(c *Config) { c.GPU.WarpSize = 16 }, "WarpSize 16"},
		{"non-pow2 line", func(c *Config) { c.GPU.LineBytes = 100 }, "LineBytes"},
		{"non-pow2 page", func(c *Config) { c.UVM.PageBytes = 3000 }, "PageBytes"},
		{"zero fault buffer", func(c *Config) { c.UVM.FaultBufferEntries = 0 }, "FaultBufferEntries"},
		{"negative handling", func(c *Config) { c.UVM.FaultHandlingUS = -1 }, "FaultHandlingUS"},
		{"zero pcie", func(c *Config) { c.UVM.PCIeGBps = 0 }, "PCIeGBps"},
		{"zero ratio", func(c *Config) { c.UVM.OversubscriptionRatio = 0 }, "OversubscriptionRatio"},
		{"bad threshold", func(c *Config) { c.UVM.PrefetchThreshold = 1.5 }, "PrefetchThreshold"},
		{"compression below 1", func(c *Config) { c.UVM.CompressionFactor = 0.5 }, "CompressionFactor"},
		{"oversub bounds", func(c *Config) { c.UVM.MaxOversubBlocks = 0; c.UVM.OversubBlocksPerSM = 2 }, "oversubscription"},
		{"throttle all SMs", func(c *Config) { c.UVM.ETCThrottleFraction = 1.0 }, "ETCThrottleFraction"},
	}
	for _, tc := range cases {
		c := Default()
		tc.mutate(&c)
		err := c.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted invalid config", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestPolicyStrings(t *testing.T) {
	for p, want := range map[Policy]string{
		Baseline: "BASELINE", TOUE: "TO+UE", ETC: "ETC", IdealEviction: "IDEAL-EVICTION",
	} {
		if p.String() != want {
			t.Errorf("Policy %d String = %q, want %q", int(p), p, want)
		}
	}
	if Policy(99).String() != "Policy(99)" {
		t.Errorf("unknown policy String = %q", Policy(99))
	}
}

func TestPolicyPredicates(t *testing.T) {
	if !TO.OversubscribesThreads() || !TOUE.OversubscribesThreads() {
		t.Error("TO/TOUE should oversubscribe threads")
	}
	if UE.OversubscribesThreads() || Baseline.OversubscribesThreads() {
		t.Error("UE/Baseline should not oversubscribe threads")
	}
	if !UE.UnobtrusiveEviction() || !TOUE.UnobtrusiveEviction() {
		t.Error("UE/TOUE should evict unobtrusively")
	}
	if TO.UnobtrusiveEviction() || ETC.UnobtrusiveEviction() {
		t.Error("TO/ETC should not evict unobtrusively")
	}
}

func TestValidateNewKnobs(t *testing.T) {
	c := Default()
	c.UVM.PrefetchAggressiveness = -0.5
	if c.Validate() == nil {
		t.Error("negative PrefetchAggressiveness accepted")
	}
	c = Default()
	c.UVM.RunaheadDepth = -1
	if c.Validate() == nil {
		t.Error("negative RunaheadDepth accepted")
	}
	c = Default()
	c.UVM.RunaheadDepth = 16
	c.GPU.DRAMBytesPerCycle = 32
	c.UVM.DMASetupCycles = 0
	if err := c.Validate(); err != nil {
		t.Errorf("valid extension knobs rejected: %v", err)
	}
}

func TestDefaultExtensionsOff(t *testing.T) {
	c := Default()
	if c.UVM.RunaheadDepth != 0 {
		t.Error("runahead enabled by default")
	}
	if c.GPU.DRAMBytesPerCycle != 0 {
		t.Error("DRAM contention model enabled by default")
	}
	if c.Preload || c.TraditionalSwitch {
		t.Error("experiment modes enabled by default")
	}
}
