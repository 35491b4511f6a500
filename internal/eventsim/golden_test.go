package eventsim

import (
	"fmt"
	"math"
	"testing"
)

// pinned renders a cross-check point's event-simulator Result, every
// field of it, the floats by their bits.
func pinned(p crossPoint) string {
	r := p.event
	return fmt.Sprintf("%s %d/%d/%d: cycles %d time %#x dram %#x issue %d stall %d membusy %d l2 %d service %#x waves %d",
		p.kernel, p.cfg.Compute.CUs, p.cfg.Compute.Freq, p.cfg.Memory.BusFreq,
		r.Cycles, math.Float64bits(r.Time), math.Float64bits(r.DRAMBytes), r.IssueSlots,
		r.StallCycles, r.MemBusyCycles, r.L2Lines, math.Float64bits(r.ServiceCycles), r.Waves)
}

// TestResultsGolden pins the event simulator bit for bit at every point
// of the cross-check matrix: a change meant to make it faster must
// leave every one of these results unchanged.
func TestResultsGolden(t *testing.T) {
	pts := crossMatrix()
	if len(pts) != len(resultsGolden) {
		t.Fatalf("%d cross-check points, %d pinned", len(pts), len(resultsGolden))
	}
	for i, p := range pts {
		if got := pinned(p); got != resultsGolden[i] {
			t.Errorf("point %d moved:\n got %s\nwant %s", i, got, resultsGolden[i])
		}
	}
}

// resultsGolden is pinned(p) for each point of crossMatrix, in order.
var resultsGolden = []string{
	"MaxFlops.Main 32/1000/1375: cycles 692964 time 0x3f4708e3b1f436fd dram 0x4122c00000000000 issue 19200000 stall 32858 membusy 59275 l2 54400 service 0x40c2c1f8b5b20ce6 waves 1600",
	"MaxFlops.Main 32/1000/475: cycles 692968 time 0x3f4708ec48fa2b10 dram 0x4122c00000000000 issue 19200000 stall 35380 membusy 62548 l2 54400 service 0x40cd2256afa517de waves 1600",
	"MaxFlops.Main 32/300/1375: cycles 692718 time 0x3f62ff6bdb7053a5 dram 0x4122c00000000000 issue 19200000 stall 18070 membusy 24326 l2 54400 service 0x40bdd92ed36ad48a waves 1600",
	"MaxFlops.Main 8/1000/1375: cycles 2470444 time 0x3f6451de3b8182c4 dram 0x4122c00000000000 issue 19200000 stall 6700 membusy 321653 l2 54400 service 0x40c2c1f8b5b20ce6 waves 1600",
	"MaxFlops.Main 16/600/925: cycles 1269296 time 0x3f61697b8b5854f2 dram 0x4122c00000000000 issue 19200000 stall 9944 membusy 81050 l2 54400 service 0x40c22a6833599ccd waves 1600",
	"DeviceMemory.Stream 32/1000/1375: cycles 28983 time 0x3f047035ae48e45c dram 0x413db00000000000 issue 102400 stall 691902 membusy 8898 l2 1600 service 0x40c107f0c0ff6ac5 waves 1600",
	"DeviceMemory.Stream 32/1000/475: cycles 45100 time 0x3f0ce36595860ea2 dram 0x413db00000000000 issue 102400 stall 2687205 membusy 25015 l2 1600 service 0x40d847b409dd78db waves 1600",
	"DeviceMemory.Stream 32/300/1375: cycles 25505 time 0x3f18e875e7547f25 dram 0x413db00000000000 issue 102400 stall 200572 membusy 5420 l2 1600 service 0x40a587edb465b353 waves 1600",
	"DeviceMemory.Stream 8/1000/1375: cycles 35008 time 0x3f0798df1abe587c dram 0x413db00000000000 issue 102400 stall 29758 membusy 14923 l2 1600 service 0x40c107f0c0ff6ac5 waves 1600",
	"DeviceMemory.Stream 16/600/925: cycles 28199 time 0x3f0de22fd21c5ea2 dram 0x413db00000000000 issue 102400 stall 64332 membusy 8114 l2 1600 service 0x40be76d00c287943 waves 1600",
	"Sort.BottomScan 32/1000/1375: cycles 49942 time 0x3f103cdb74fda554 dram 0x4132c00000000000 issue 715200 stall 541609 membusy 29731 l2 19200 service 0x40c01f631790c260 waves 1600",
	"Sort.BottomScan 32/1000/475: cycles 50349 time 0x3f10582ba9ebbb14 dram 0x4132c00000000000 issue 715200 stall 568905 membusy 30138 l2 19200 service 0x40d2e501f2f3344a waves 1600",
	"Sort.BottomScan 32/300/1375: cycles 44171 time 0x3f24df188d22f709 dram 0x4132c00000000000 issue 715200 stall 31608 membusy 15110 l2 19200 service 0x40b03c6ea7bd416d waves 1600",
	"Sort.BottomScan 8/1000/1375: cycles 124877 time 0x3f21f0d47a2672ec dram 0x4132c00000000000 issue 715200 stall 395129 membusy 104666 l2 19200 service 0x40c01f631790c260 waves 1600",
	"Sort.BottomScan 16/600/925: cycles 67884 time 0x3f2067006a33249b dram 0x4132c00000000000 issue 715200 stall 96576 membusy 47575 l2 19200 service 0x40bdc5d35a77d745 waves 1600",
	"CoMD.AdvanceVelocity 32/1000/1375: cycles 23060 time 0x3f01553cf3506f2e dram 0x4147e80000000000 issue 65600 stall 1558864 membusy 15046 l2 8640 service 0x40ce0a0e050c0e93 waves 1600",
	"CoMD.AdvanceVelocity 32/1000/475: cycles 49999 time 0x3f0f74edf13d4d1b dram 0x4147e80000000000 issue 65600 stall 4815847 membusy 41985 l2 8640 service 0x40e4bd61b98c1807 waves 1600",
	"CoMD.AdvanceVelocity 32/300/1375: cycles 16318 time 0x3f10e15d0b01493a dram 0x4147e80000000000 issue 65600 stall 721426 membusy 8304 l2 8640 service 0x40b4fa08696da258 waves 1600",
	"CoMD.AdvanceVelocity 8/1000/1375: cycles 24140 time 0x3f01e63177c736e1 dram 0x4147e80000000000 issue 65600 stall 183262 membusy 16126 l2 8640 service 0x40ce0a0e050c0e93 waves 1600",
	"CoMD.AdvanceVelocity 16/600/925: cycles 21139 time 0x3f07b6e43b8cac59 dram 0x4147e80000000000 issue 65600 stall 513051 membusy 13125 l2 8640 service 0x40cb05136c490615 waves 1600",
	"CoMD.EAM_Force_1 32/1000/1375: cycles 78774 time 0x3f17cbbd71ffbb7c dram 0x4145cc0000000000 issue 1507200 stall 70324 membusy 53485 l2 54560 service 0x40d490cf013991c2 waves 1600",
	"CoMD.EAM_Force_1 32/1000/475: cycles 78775 time 0x3f17cbcea00ba3a2 dram 0x4145cc0000000000 issue 1507200 stall 76450 membusy 53486 l2 54560 service 0x40e774dac5242a8e waves 1600",
	"CoMD.EAM_Force_1 32/300/1375: cycles 74751 time 0x3f311db49bd385a4 dram 0x4145cc0000000000 issue 1507200 stall 482 membusy 27749 l2 54560 service 0x40c5a9e29a55bddc waves 1600",
	"CoMD.EAM_Force_1 8/1000/1375: cycles 216758 time 0x3f2dfbd841e4c0a3 dram 0x4145cc0000000000 issue 1507200 stall 6170 membusy 191469 l2 54560 service 0x40d490cf013991c2 waves 1600",
	"CoMD.EAM_Force_1 16/600/925: cycles 120696 time 0x3f2bf07675274970 dram 0x4145cc0000000000 issue 1507200 stall 367 membusy 86242 l2 54560 service 0x40d30ff6e56ab26e waves 1600",
	"Stencil.Step 32/1000/1375: cycles 23353 time 0x3f017c905a91d816 dram 0x4118100000000000 issue 248000 stall 6088 membusy 7968 l2 25840 service 0x40b3800b9443760f waves 1600",
	"Stencil.Step 32/1000/475: cycles 23377 time 0x3f017fc8fccd5f5e dram 0x4118100000000000 issue 248000 stall 8135 membusy 8107 l2 25840 service 0x40c0455420b27bb7 waves 1600",
	"Stencil.Step 32/300/1375: cycles 23281 time 0x3f16f6f5ce871a74 dram 0x4118100000000000 issue 248000 stall 0 membusy 5566 l2 25840 service 0x40ad5d3a25c213a2 waves 1600",
	"Stencil.Step 8/1000/1375: cycles 47363 time 0x3f0e1321ac086d48 dram 0x4113830000000000 issue 248000 stall 5360 membusy 30944 l2 27005 service 0x40b2c46d212892a4 waves 1600",
	"Stencil.Step 16/600/925: cycles 31316 time 0x3f104db954ae3b76 dram 0x4115070000000000 issue 248000 stall 11911 membusy 15123 l2 26617 service 0x40b25c72e258360b waves 1600",
	"SPMV.CSRVector 32/1000/1375: cycles 26119 time 0x3f03fc3edde9de33 dram 0x4141c60000000000 issue 59200 stall 921618 membusy 14107 l2 15600 service 0x40cd6fc668cca375 waves 800",
	"SPMV.CSRVector 32/1000/475: cycles 51081 time 0x3f10894b53f78a21 dram 0x4141c60000000000 issue 59200 stall 3097069 membusy 39069 l2 15600 service 0x40e37fade6c9fd09 waves 800",
	"SPMV.CSRVector 32/300/1375: cycles 18363 time 0x3f13310a3913f2d2 dram 0x4141c60000000000 issue 59200 stall 262138 membusy 6351 l2 15600 service 0x40b6fe770badfbac waves 800",
	"SPMV.CSRVector 8/1000/1375: cycles 29539 time 0x3f05c7452c0cabe8 dram 0x413f31c000000000 issue 59200 stall 259650 membusy 17526 l2 20057 service 0x40cb6300c9a3a8ad waves 800",
	"SPMV.CSRVector 16/600/925: cycles 23902 time 0x3f0b2d664df61076 dram 0x414052a000000000 issue 59200 stall 453795 membusy 11889 l2 18571 service 0x40c98695b697b3a8 waves 800",
	"miniFE.Dot 32/1000/1375: cycles 13604 time 0x3ef8c02687647404 dram 0x4137e84000000000 issue 49600 stall 686106 membusy 7590 l2 2719 service 0x40bc20e6c564666c waves 1600",
	"miniFE.Dot 32/1000/475: cycles 26497 time 0x3f03228b5f08120c dram 0x4137e84000000000 issue 49600 stall 2255100 membusy 20483 l2 2719 service 0x40d3ba2f6d2a5798 waves 1600",
	"miniFE.Dot 32/300/1375: cycles 10267 time 0x3f072f8e29c08a66 dram 0x4137e84000000000 issue 49600 stall 306180 membusy 4253 l2 2719 service 0x40a2bc5da9a2a3db waves 1600",
	"miniFE.Dot 8/1000/1375: cycles 15126 time 0x3efa58b5928d4fa4 dram 0x4137e84000000000 issue 49600 stall 58828 membusy 9112 l2 2719 service 0x40bc20e6c564666c waves 1600",
	"miniFE.Dot 16/600/925: cycles 12518 time 0x3f002e680ef9b4a9 dram 0x4137e84000000000 issue 49600 stall 182434 membusy 6504 l2 2719 service 0x40b93b2b3a6e4d81 waves 1600",
	"Streamcluster.PGain 32/1000/1375: cycles 48981 time 0x3f0ff8bb34965711 dram 0x414602a000000000 issue 619200 stall 346245 membusy 23872 l2 49323 service 0x40d4100037872528 waves 1600",
	"Streamcluster.PGain 32/1000/475: cycles 68721 time 0x3f152918386c3e52 dram 0x414602a000000000 issue 619200 stall 2792342 membusy 43612 l2 49323 service 0x40e755770d003c85 waves 1600",
	"Streamcluster.PGain 32/300/1375: cycles 45852 time 0x3f259b1cd171f815 dram 0x414602a000000000 issue 619200 stall 1850 membusy 19279 l2 49323 service 0x40c4777b5484497e waves 1600",
	"Streamcluster.PGain 8/1000/1375: cycles 107119 time 0x3f1f39f0d65b2fc0 dram 0x4144ec6000000000 issue 619200 stall 31927 membusy 82010 l2 51549 service 0x40d3a40d279abe44 waves 1600",
	"Streamcluster.PGain 16/600/925: cycles 65100 time 0x3f1f969e3c968944 dram 0x4145492000000000 issue 619200 stall 0 membusy 37608 l2 50807 service 0x40d25037742a3de8 waves 1600",
}
