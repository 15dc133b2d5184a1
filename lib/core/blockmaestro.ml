(** BlockMaestro: programmer-transparent task-based execution for GPUs.

    Umbrella module re-exporting the whole public API.  Typical use:

    {[
      open Blockmaestro
      let app = Suite.by_name "GAUSSIAN" ()
      let results = Runner.simulate_all app
    ]}

    Layer map (bottom-up):
    - {!Rng}, {!Eheap}, {!Lru}: deterministic simulation substrate
    - {!Ptx}, {!Printer}, {!Parser}, {!Builder}, {!Cfg}: the PTX-like IR
    - {!Sinterval}, {!Sym}, {!Slice}, {!Symeval}, {!Footprint},
      {!Fingerprint}: kernel-launch-time static analysis (Algorithm 1)
    - {!Bipartite}, {!Pattern}, {!Encode}: TB-level dependency graphs
    - {!Config}, {!Command}, {!Alloc}, {!Costmodel}, {!Stats}: GPU model
    - {!Mode}, {!Reorder}, {!Jsonc}, {!Cache}, {!Prep}, {!Hardware},
      {!Sim}, {!Graph}, {!Replay}, {!Multi}, {!Runner}: BlockMaestro
      proper (simulator, ahead-of-time capture/replay, cross-app
      co-running)
    - {!Templates}, {!Dsl}, {!Suite}, {!Microbench}, {!Wavefront},
      {!Genapp}: workloads
    - {!Cdp}, {!Wireframe}: comparison models
    - {!Refsched}, {!Diff}, {!Soundness}, {!Shrink}, {!Fuzz}:
      differential oracle and shrinking fuzzer
    - {!Metrics}, {!Prof}, {!Json}, {!Benchfile}: performance counters,
      span profiling and machine-readable bench trajectories
    - {!Parallel}, {!Benchrun}: domain-pool fan-out for experiment sweeps
      and the parallel bench-trajectory collector
    - {!Report}, {!Timeline}, {!Trace}: result formatting and event traces
    - {!Attrib}, {!Critpath}, {!Explain}: cycle attribution, critical-path
      extraction and what-if sensitivity (the "explain" layer) *)

module Rng = Bm_engine.Rng
module Eheap = Bm_engine.Eheap
module Lru = Bm_engine.Lru

module Ptx = Bm_ptx.Types
module Printer = Bm_ptx.Printer
module Parser = Bm_ptx.Parser
module Builder = Bm_ptx.Builder
module Cfg = Bm_ptx.Cfg
module Interp = Bm_ptx.Interp

module Sinterval = Bm_analysis.Sinterval
module Sym = Bm_analysis.Sym
module Slice = Bm_analysis.Slice
module Symeval = Bm_analysis.Symeval
module Footprint = Bm_analysis.Footprint
module Dynamic = Bm_analysis.Dynamic
module Fingerprint = Bm_analysis.Fingerprint

module Bipartite = Bm_depgraph.Bipartite
module Pattern = Bm_depgraph.Pattern
module Encode = Bm_depgraph.Encode

module Config = Bm_gpu.Config
module Command = Bm_gpu.Command
module Alloc = Bm_gpu.Alloc
module Costmodel = Bm_gpu.Costmodel
module Stats = Bm_gpu.Stats

module Mode = Bm_maestro.Mode
module Reorder = Bm_maestro.Reorder
module Jsonc = Bm_maestro.Jsonc
module Cache = Bm_maestro.Cache
module Prep = Bm_maestro.Prep
module Hardware = Bm_maestro.Hardware
module Sim = Bm_maestro.Sim
module Graph = Bm_maestro.Graph
module Replay = Bm_maestro.Replay
module Multi = Bm_maestro.Multi
module Deadline = Bm_maestro.Deadline
module Runner = Bm_maestro.Runner

module Templates = Bm_workloads.Templates
module Dsl = Bm_workloads.Dsl
module Suite = Bm_workloads.Suite
module Microbench = Bm_workloads.Microbench
module Wavefront = Bm_workloads.Wavefront
module Genapp = Bm_workloads.Genapp

module Refsched = Bm_oracle.Refsched
module Diff = Bm_oracle.Diff
module Soundness = Bm_oracle.Soundness
module Shrink = Bm_oracle.Shrink
module Fuzz = Bm_oracle.Fuzz
module Rta = Bm_oracle.Rta

module Cdp = Bm_baselines.Cdp
module Wireframe = Bm_baselines.Wireframe

module Report = Bm_report.Report
module Timeline = Bm_report.Timeline
module Trace = Bm_report.Trace
module Attrib = Bm_report.Attrib
module Critpath = Bm_report.Critpath
module Explain = Bm_maestro.Explain

module Metrics = Bm_metrics.Metrics
module Prof = Bm_metrics.Prof
module Json = Bm_metrics.Json
module Benchfile = Bm_metrics.Benchfile

module Parallel = Bm_parallel
module Benchrun = Bm_harness.Benchrun
