(* Tests for pc_caches: set-associative LRU behaviour, hierarchy
   latencies, the 28-configuration study set, both cache models against
   the reference model, and the functional simulator's data-reference
   feed that the study reads. *)

module Cache = Pc_caches.Cache
module Hierarchy = Pc_caches.Hierarchy
module Study = Pc_caches.Study

let cfg ?(assoc = 1) ?(size = 256) ?(line = 32) () =
  Cache.config ~size_bytes:size ~assoc ~line_bytes:line

(* --- configuration validation --- *)

let expect_invalid f =
  Alcotest.(check bool) "rejected" true
    (match f () with _ -> false | exception Invalid_argument _ -> true)

let test_config_validation () =
  expect_invalid (fun () -> Cache.config ~size_bytes:300 ~assoc:1 ~line_bytes:32);
  expect_invalid (fun () -> Cache.config ~size_bytes:256 ~assoc:1 ~line_bytes:33);
  expect_invalid (fun () -> Cache.config ~size_bytes:256 ~assoc:3 ~line_bytes:32);
  expect_invalid (fun () -> Cache.config ~size_bytes:256 ~assoc:(-1) ~line_bytes:32);
  ignore (cfg ())

let test_config_names () =
  Alcotest.(check string) "direct" "256B/direct/32B" (Cache.config_name (cfg ()));
  Alcotest.(check string) "2-way" "4KB/2-way/32B"
    (Cache.config_name (cfg ~size:4096 ~assoc:2 ()));
  Alcotest.(check string) "full" "1KB/full/32B"
    (Cache.config_name (cfg ~size:1024 ~assoc:0 ()))

let test_ways () =
  Alcotest.(check int) "direct" 1 (Cache.ways (cfg ()));
  Alcotest.(check int) "fully assoc = lines" 8 (Cache.ways (cfg ~assoc:0 ()))

(* --- hit/miss behaviour --- *)

let test_cold_miss_then_hit () =
  let c = Cache.create (cfg ()) in
  Alcotest.(check bool) "cold miss" false (Cache.access c 0x1000);
  Alcotest.(check bool) "hit" true (Cache.access c 0x1000);
  Alcotest.(check bool) "same line hit" true (Cache.access c 0x101F);
  Alcotest.(check bool) "next line miss" false (Cache.access c 0x1020)

let test_direct_mapped_conflict () =
  (* 256B direct with 32B lines: addresses 256 bytes apart conflict. *)
  let c = Cache.create (cfg ()) in
  ignore (Cache.access c 0);
  ignore (Cache.access c 256);
  Alcotest.(check bool) "conflict evicted the first line" false (Cache.access c 0)

let test_two_way_no_conflict () =
  let c = Cache.create (cfg ~assoc:2 ()) in
  ignore (Cache.access c 0);
  ignore (Cache.access c 256);
  Alcotest.(check bool) "2-way holds both" true (Cache.access c 0);
  Alcotest.(check bool) "and the second" true (Cache.access c 256)

let test_lru_replacement () =
  (* 2-way set: touch A, B, re-touch A, insert C -> B must be evicted. *)
  let c = Cache.create (cfg ~assoc:2 ()) in
  ignore (Cache.access c 0) (* A *);
  ignore (Cache.access c 256) (* B *);
  ignore (Cache.access c 0) (* A again: B is now LRU *);
  ignore (Cache.access c 512) (* C evicts B *);
  Alcotest.(check bool) "A still resident" true (Cache.access c 0);
  Alcotest.(check bool) "B evicted" false (Cache.access c 256)

let test_fully_associative_capacity () =
  (* 256B fully associative = 8 lines: 8 distinct lines all fit. *)
  let c = Cache.create (cfg ~assoc:0 ()) in
  for i = 0 to 7 do
    ignore (Cache.access c (i * 32))
  done;
  for i = 0 to 7 do
    if not (Cache.access c (i * 32)) then Alcotest.failf "line %d not resident" i
  done;
  (* a ninth line evicts the LRU (line 0) *)
  ignore (Cache.access c (8 * 32));
  Alcotest.(check bool) "line 0 evicted" false (Cache.access c 0)

let test_counters_and_reset () =
  let c = Cache.create (cfg ()) in
  ignore (Cache.access c 0);
  ignore (Cache.access c 0);
  ignore (Cache.access c 32);
  Alcotest.(check int) "accesses" 3 (Cache.accesses c);
  Alcotest.(check int) "misses" 2 (Cache.misses c)

let test_bigger_cache_never_worse () =
  (* Sequential + re-walk workload: larger caches of the same shape must
     not miss more (LRU inclusion property holds per set count only when
     shapes nest, so compare direct-mapped sizes on a sequential walk). *)
  let walk c =
    for _ = 1 to 3 do
      for i = 0 to 63 do
        ignore (Cache.access c (i * 32))
      done
    done;
    Cache.misses c
  in
  let small = walk (Cache.create (cfg ~size:512 ())) in
  let large = walk (Cache.create (cfg ~size:4096 ())) in
  Alcotest.(check bool) "monotone" true (large <= small)

(* --- replacement --- *)

let test_fifo_differs_from_lru () =
  (* A, B, re-touch A, insert C: LRU evicts B, the line a FIFO policy
     would have kept, and keeps the re-touched A. *)
  let c = Cache.create (cfg ~assoc:2 ()) in
  ignore (Cache.access c 0);
  ignore (Cache.access c 256);
  ignore (Cache.access c 0);
  ignore (Cache.access c 512);
  let a = Cache.access c 0 in
  let b = Cache.access c 256 in
  Alcotest.(check (pair bool bool)) "LRU keeps A" (true, false) (a, b)

(* --- hierarchy --- *)

let hcfg =
  {
    Hierarchy.l1 = cfg ~size:256 ();
    l1_latency = 1;
    l2 = Some (cfg ~size:1024 ~assoc:2 ());
    l2_latency = 6;
    mem_latency = 40;
  }

let test_hierarchy_latencies () =
  let h = Hierarchy.create hcfg in
  Alcotest.(check int) "cold: full path" 47 (Hierarchy.access h 0x2000);
  Alcotest.(check int) "L1 hit" 1 (Hierarchy.access h 0x2000);
  (* evict from L1 (256B direct) but not from L2 *)
  ignore (Hierarchy.access h 0x2100);
  Alcotest.(check int) "L2 hit" 7 (Hierarchy.access h 0x2000)

let test_hierarchy_counters () =
  let h = Hierarchy.create hcfg in
  ignore (Hierarchy.access h 0);
  ignore (Hierarchy.access h 0);
  ignore (Hierarchy.access h 4096);
  Alcotest.(check int) "l1 accesses" 3 (Hierarchy.l1_accesses h);
  Alcotest.(check int) "l1 misses" 2 (Hierarchy.l1_misses h);
  Alcotest.(check int) "l2 accesses" 2 (Hierarchy.l2_accesses h);
  Alcotest.(check int) "memory accesses" 2 (Hierarchy.mem_accesses h)

let test_hierarchy_no_l2 () =
  let h = Hierarchy.create { hcfg with Hierarchy.l2 = None } in
  Alcotest.(check int) "miss to memory" 41 (Hierarchy.access h 0);
  Alcotest.(check int) "no l2 accesses" 0 (Hierarchy.l2_accesses h)

(* Shared-L2 ensembles: two tagged tenants draining into one L2.  A
   freshly built ensemble replays another fresh ensemble's latencies and
   per-tenant counters exactly, while a second pass over the warm caches
   differs — pc_scenario builds a new ensemble per run, so nothing
   leaks between runs. *)
let test_shared_l2_reset_reuse () =
  let l2_cfg = Option.get hcfg.Hierarchy.l2 in
  (* per-tenant footprint: 4 distinct lines in sets 0..3 of the 256B
     direct-mapped L1 — the first pass cold-misses then hits, so a
     second pass over warm caches is observably different *)
  let stream = List.init 64 (fun i -> (i mod 2, i / 2 mod 4 * 32)) in
  let run hs =
    List.map (fun (tenant, addr) -> Hierarchy.access hs.(tenant) addr) stream
  in
  let build () =
    let l2 = Cache.create l2_cfg in
    Array.init 2 (fun i ->
        Hierarchy.create_shared ~tag:(i lsl 26) ~l2:(Some l2) hcfg)
  in
  let counters h =
    ( Hierarchy.l1_accesses h,
      Hierarchy.l1_misses h,
      Hierarchy.l2_accesses h,
      Hierarchy.l2_misses h,
      Hierarchy.mem_accesses h )
  in
  let hs = build () in
  let first = run hs in
  let first_counters = Array.map counters hs in
  Alcotest.(check bool) "warm pass differs" true (run hs <> first);
  let fresh = build () in
  Alcotest.(check (list int)) "fresh ensemble matches" first (run fresh);
  Alcotest.(check bool) "fresh counters match" true
    (Array.map counters fresh = first_counters)

(* --- the 28-config study --- *)

let test_study_configs () =
  Alcotest.(check int) "28 configurations" 28 (Array.length Study.configs);
  Alcotest.(check string) "reference config" "256B/direct/32B"
    (Pc_caches.Cache.config_name Study.configs.(Study.reference_index));
  (* all lines are 32B, sizes span 256B..16KB *)
  Array.iter
    (fun (c : Cache.config) ->
      Alcotest.(check int) "line" 32 c.Cache.line_bytes;
      if c.Cache.size_bytes < 256 || c.Cache.size_bytes > 16384 then
        Alcotest.fail "size out of the study range")
    Study.configs

let test_study_run_trace () =
  (* A 512-byte circular walk: small caches miss, 1KB+ caches hit. *)
  let results =
    Study.run_trace (fun emit ->
        for _ = 1 to 50 do
          for i = 0 to 15 do
            emit (i * 32)
          done
        done;
        8000)
  in
  Alcotest.(check int) "28 results" 28 (Array.length results);
  let find name =
    Array.to_list results
    |> List.find (fun (r : Study.result) ->
           Pc_caches.Cache.config_name r.Study.config = name)
  in
  let small = find "256B/direct/32B" and large = find "16KB/direct/32B" in
  Alcotest.(check bool) "small cache misses a lot" true (small.Study.misses > 400);
  Alcotest.(check bool) "16KB only compulsory" true (large.Study.misses <= 16);
  Alcotest.(check int) "accesses counted" 800 small.Study.accesses;
  Alcotest.(check (float 1e-9)) "mpi denominator"
    (float_of_int small.Study.misses /. 8000.0) small.Study.mpi

let mpis results = Array.map (fun (r : Study.result) -> r.Study.mpi) results

let test_relative_mpi () =
  let results =
    Study.run_trace (fun emit ->
        for i = 0 to 999 do
          emit (i * 32)
        done;
        1000)
  in
  let rel = Study.relative_mpi (mpis results) in
  Alcotest.(check int) "27 relative values" 27 (Array.length rel);
  (* a pure cold-miss walk has equal MPI everywhere: all relatives are 1 *)
  Array.iter (fun v -> Alcotest.(check (float 1e-9)) "flat" 1.0 v) rel

let test_relative_mpi_degenerate () =
  (* No memory references at all: every MPI is 0, the reference included,
     so the ratios are undefined.  The series must be all-NaN sentinels
     (rendered as null by the JSON writers), never absolute MPIs. *)
  let results = Study.run_trace (fun _emit -> 100) in
  let rel = Study.relative_mpi (mpis results) in
  Alcotest.(check int) "27 values" 27 (Array.length rel);
  Array.iter
    (fun v ->
      Alcotest.(check bool) "NaN sentinel, not absolute MPI" true
        (Float.is_nan v))
    rel

(* --- the one-pass stack-distance sweep --- *)

let check_results_equal what (simulated : Study.result array)
    (onepass : Study.result array) =
  Alcotest.(check int)
    (what ^ ": config count")
    (Array.length simulated) (Array.length onepass);
  Array.iteri
    (fun i (s : Study.result) ->
      let o = onepass.(i) in
      let name = Pc_caches.Cache.config_name s.Study.config in
      if
        s.Study.misses <> o.Study.misses
        || s.Study.accesses <> o.Study.accesses
        || s.Study.mpi <> o.Study.mpi
      then
        Alcotest.failf
          "%s: %s: simulated misses=%d accesses=%d mpi=%.9f, one-pass \
           misses=%d accesses=%d mpi=%.9f"
          what name s.Study.misses s.Study.accesses s.Study.mpi o.Study.misses
          o.Study.accesses o.Study.mpi)
    simulated

(* Feed a recorded address array through the simulated and the one-pass
   grid.  Whole, it is [Study.run_trace] and [run_trace_onepass]; split
   at [cut], one walk of each grid is read at the cut and at the end,
   and the results count only the references past the cut. *)
let run_both ?cut addrs instrs =
  let n = Array.length addrs in
  match cut with
  | None ->
    let feed emit = Array.iter emit addrs; instrs in
    (Study.run_trace feed, Study.run_trace_onepass feed)
  | Some cut ->
    let walk ~onepass =
      let g = Study.grid ~onepass in
      for i = 0 to cut - 1 do
        Study.access g addrs.(i)
      done;
      let warm_misses = Study.misses g and warm_accesses = Study.accesses g in
      for i = cut to n - 1 do
        Study.access g addrs.(i)
      done;
      let accesses = Study.accesses g - warm_accesses in
      Array.map2
        (fun config (misses, warm) ->
          let misses = misses - warm in
          {
            Study.config;
            misses;
            accesses;
            mpi =
              (if instrs = 0 then 0.0
               else float_of_int misses /. float_of_int instrs);
          })
        Study.configs
        (Array.combine (Study.misses g) warm_misses)
    in
    (walk ~onepass:false, walk ~onepass:true)

(* --- LRU inclusion ---

   At a fixed set count and line size, an LRU set with more ways holds
   every line the one with fewer ways holds, so it never misses more:
   on any trace, warmup split or not.  In the study grid 256B direct,
   512B 2-way and 1KB 4-way share 8 sets, and so on up the sizes; each
   fully associative size is one set with more ways than the last. *)

let inclusion_pairs =
  let sets (c : Cache.config) = c.Cache.size_bytes / c.Cache.line_bytes / Cache.ways c in
  let n = Array.length Study.configs in
  List.concat
    (List.init n (fun few ->
         List.filter_map
           (fun more ->
             let a = Study.configs.(few) and b = Study.configs.(more) in
             if sets a = sets b && Cache.ways a < Cache.ways b then Some (few, more)
             else None)
           (List.init n Fun.id)))

(* Strided runs (the short strides stay inside a line for several
   references), immediate repeats of one address, two lines taking
   turns in one set (16, 32 or 48KB apart, multiples of every tested
   cache's way size), and random addresses, each random run within a
   512B, 2KB or 16KB span so caches of every size see reuse. *)
let arb_mixed_trace =
  let open QCheck.Gen in
  let strided =
    map3
      (fun base stride count -> Array.init count (fun i -> base + (i * stride)))
      (int_bound 0x3FFF)
      (oneofl [ 4; 8; 32; 64; 256; 1024 ])
      (int_range 1 64)
  in
  let repeats =
    map2 (fun addr count -> Array.make count addr) (int_bound 0x3FFF) (int_range 2 6)
  in
  let alternating =
    map3
      (fun addr apart count ->
        Array.init count (fun i -> if i land 1 = 0 then addr else addr + (apart * 0x4000)))
      (int_bound 0x3FFF) (int_range 1 3) (int_range 2 12)
  in
  let random =
    oneofl [ 0x1FF; 0x7FF; 0x3FFF ] >>= fun span ->
    map Array.of_list (list_size (int_range 1 32) (int_bound span))
  in
  QCheck.make
    ~print:(fun a -> Printf.sprintf "%d refs" (Array.length a))
    (map Array.concat
       (list_size (int_range 1 40) (oneof [ strided; repeats; alternating; random ])))

let qcheck_lru_inclusion =
  QCheck.Test.make ~name:"LRU inclusion: more ways never add misses" ~count:200
    (QCheck.pair arb_mixed_trace (QCheck.int_bound 100))
    (fun (addrs, cut_pct) ->
      let cut = Array.length addrs * cut_pct / 100 in
      let sim, one = run_both ~cut addrs (Array.length addrs) in
      List.for_all
        (fun (results : Study.result array) ->
          List.for_all
            (fun (few, more) -> results.(more).Study.misses <= results.(few).Study.misses)
            inclusion_pairs)
        [ sim; one ])

let test_onepass_matches_oracle () =
  (* A mixed trace that exercises every tracker: tight reuse (small
     stack distances), a sequential walk wider than the largest cache
     (deep/cold misses), and strided conflicts. *)
  let addrs =
    Array.init 30_000 (fun i ->
        match i mod 3 with
        | 0 -> i * 7919 mod 1024 * 32 (* hot 32KB-ish working set *)
        | 1 -> i * 4 land 0x7FFFF (* long sequential walk *)
        | _ -> i mod 64 * 2048 (* set conflicts across sizes *))
  in
  let sim, one = run_both addrs 60_000 in
  check_results_equal "no warmup" sim one;
  let sim, one = run_both ~cut:10_000 addrs 40_000 in
  check_results_equal "with warmup" sim one

let test_onepass_warmup_boundary () =
  (* Warmup refs prime state but never count: measured accesses must be
     exactly the post-cut refs, and a measured re-touch of a warmed line
     must hit in a large cache on both paths. *)
  let addrs = Array.init 2_000 (fun i -> i mod 400 * 32) in
  let cut = 1_200 in
  let sim, one = run_both ~cut addrs 1_000 in
  check_results_equal "boundary" sim one;
  Array.iter
    (fun (r : Study.result) ->
      Alcotest.(check int) "measured refs only" (Array.length addrs - cut)
        r.Study.accesses)
    one;
  let find name =
    Array.to_list one
    |> List.find (fun (r : Study.result) ->
           Pc_caches.Cache.config_name r.Study.config = name)
  in
  (* 400 lines = 12.5KB working set: warmed 16KB-full sees no measured
     misses at all, while the cold 256B reference keeps missing. *)
  Alcotest.(check int) "16KB full warmed: no measured misses" 0
    (find "16KB/full/32B").Study.misses;
  Alcotest.(check bool) "256B direct still misses" true
    ((find "256B/direct/32B").Study.misses > 0)

let test_onepass_all_workloads () =
  (* The acceptance bar: byte-identical to the simulated sweep on every
     registry workload, with and without a warmup split. *)
  let max_instrs = 30_000 in
  List.iter
    (fun name ->
      let p = Pc_workloads.Registry.(compile (find name)) in
      let buf = ref [] and count = ref 0 in
      let m = Pc_funcsim.Machine.load p in
      let instrs =
        Pc_funcsim.Machine.run ~max_instrs m (fun ev ->
            if ev.Pc_funcsim.Machine.mem_addr >= 0 then begin
              buf := ev.Pc_funcsim.Machine.mem_addr :: !buf;
              incr count
            end)
      in
      let addrs = Array.of_list (List.rev !buf) in
      let sim, one = run_both addrs instrs in
      check_results_equal (name ^ " (no warmup)") sim one;
      if Array.length addrs > 1 then begin
        let cut = Array.length addrs / 2 in
        let sim, one = run_both ~cut addrs instrs in
        check_results_equal (name ^ " (warmup split)") sim one
      end)
    Pc_workloads.Registry.names

let test_onepass_rejects_non_lru () =
  expect_invalid (fun () -> Pc_caches.Stack_dist.create [||])

(* --- the functional simulator's data stream ---

   [Machine.run_data_refs] is the feed of the unsampled cache sweep: it
   must emit exactly the load/store addresses the reference interpreter
   retires, in retire order, and return the same retired count. *)

let reference_data_refs ~max_instrs p =
  let buf = ref [] in
  let instrs =
    Machine_ref.run ~max_instrs (Machine_ref.load p) (fun ev ->
        if ev.Machine_ref.mem_addr >= 0 then buf := ev.Machine_ref.mem_addr :: !buf)
  in
  (instrs, List.rev !buf)

let test_data_refs_match_reference () =
  let max_instrs = 30_000 in
  List.iter
    (fun name ->
      let p = Pc_workloads.Registry.(compile (find name)) in
      let ref_instrs, ref_addrs = reference_data_refs ~max_instrs p in
      let buf = ref [] in
      let instrs =
        Pc_funcsim.Machine.run_data_refs ~max_instrs
          (Pc_funcsim.Machine.load p) (fun a -> buf := a :: !buf)
      in
      Alcotest.(check int) (name ^ " retired") ref_instrs instrs;
      Alcotest.(check (list int)) (name ^ " addresses") ref_addrs (List.rev !buf))
    Pc_workloads.Registry.names

let test_data_refs_resume () =
  (* Two calls whose budgets end mid-chunk continue one stream: together
     they retire and emit what one call with the summed budget does. *)
  let p = Pc_workloads.Registry.(compile (find "qsort")) in
  let first = 10_007 and second = 9_993 in
  let ref_instrs, ref_addrs = reference_data_refs ~max_instrs:(first + second) p in
  let m = Pc_funcsim.Machine.load p in
  let buf = ref [] in
  let emit a = buf := a :: !buf in
  let a = Pc_funcsim.Machine.run_data_refs ~max_instrs:first m emit in
  let b = Pc_funcsim.Machine.run_data_refs ~max_instrs:second m emit in
  Alcotest.(check int) "first budget" first a;
  Alcotest.(check int) "retired" ref_instrs (a + b);
  Alcotest.(check (list int)) "addresses" ref_addrs (List.rev !buf)

let qcheck_onepass_oracle =
  QCheck.Test.make
    ~name:"one-pass sweep equals the simulated oracle (random traces)"
    ~count:60
    QCheck.(
      triple
        (list_of_size Gen.(int_range 1 400) (int_bound 100_000))
        arb_mixed_trace (int_bound 100))
    (fun (scattered, mixed, cut_pct) ->
      (* Scattered addresses over 800KB, where a repeated line is rare,
         then a run rich in repeats. *)
      let addrs =
        Array.append (Array.of_list (List.map (fun a -> a * 8) scattered)) mixed
      in
      let cut = Array.length addrs * cut_pct / 100 in
      let sim, one = run_both ~cut addrs (Array.length addrs) in
      Array.for_all2
        (fun (s : Study.result) (o : Study.result) ->
          s.Study.misses = o.Study.misses
          && s.Study.accesses = o.Study.accesses
          && s.Study.mpi = o.Study.mpi)
        sim one)

(* --- the reference model ---

   [Cache_ref] is the tag-array model before the repeat-line fast path:
   every access scans its set.  On the configurations below (direct,
   2-way, 4-way, and 8-, 64- and 512-way fully associative, with 16-,
   32- and 64-byte lines) the cache must give its answer, with the same
   counters, after every access, and the one-pass grid over all six
   must report its misses for each, where a repeat is only a repeat at
   the finest line size. *)

let oracle_configs =
  [|
    cfg ~size:512 ~line:16 ();
    cfg ~size:1024 ~assoc:2 ();
    cfg ~size:4096 ~assoc:4 ~line:64 ();
    cfg ~size:128 ~assoc:0 ~line:16 () (* 8 ways *);
    cfg ~size:4096 ~assoc:0 ~line:64 () (* 64 ways *);
    cfg ~size:16384 ~assoc:0 () (* 512 ways *);
  |]

let qcheck_cache_matches_ref =
  QCheck.Test.make ~name:"every access answers as the reference model" ~count:200
    arb_mixed_trace (fun addrs ->
      Array.for_all
        (fun config ->
          let c = Cache.create config and r = Cache_ref.create config in
          Array.for_all
            (fun addr ->
              let hit = Cache.access c addr in
              hit = Cache_ref.access r addr
              && Cache.accesses c = Cache_ref.accesses r
              && Cache.misses c = Cache_ref.misses r)
            addrs)
        oracle_configs)

let qcheck_grid_matches_ref =
  QCheck.Test.make ~name:"mixed-line grid equals per-config Cache_ref" ~count:200
    (QCheck.pair arb_mixed_trace (QCheck.int_bound 100))
    (fun (addrs, cut_pct) ->
      let cut = Array.length addrs * cut_pct / 100 in
      let prof = Pc_caches.Stack_dist.create oracle_configs in
      let refs = Array.map Cache_ref.create oracle_configs in
      let feed lo hi =
        for i = lo to hi - 1 do
          Pc_caches.Stack_dist.access prof addrs.(i);
          Array.iter (fun r -> ignore (Cache_ref.access r addrs.(i))) refs
        done
      in
      feed 0 cut;
      let warm = Pc_caches.Stack_dist.misses prof in
      let warm_ref = Array.map Cache_ref.misses refs in
      feed cut (Array.length addrs);
      Pc_caches.Stack_dist.accesses prof = Array.length addrs
      && Array.map2 ( - ) (Pc_caches.Stack_dist.misses prof) warm
         = Array.map2 (fun r w -> Cache_ref.misses r - w) refs warm_ref)

let qcheck_miss_rate_bounds =
  QCheck.Test.make ~name:"miss rate stays within [0,1]" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 500) (int_bound 10_000))
    (fun addrs ->
      let c = Cache.create (cfg ~size:512 ~assoc:2 ()) in
      List.iter (fun a -> ignore (Cache.access c (a * 8))) addrs;
      Cache.misses c >= 0 && Cache.misses c <= Cache.accesses c)

let qcheck_repeat_hits =
  QCheck.Test.make ~name:"immediately repeated accesses always hit" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 200) (int_bound 100_000))
    (fun addrs ->
      let c = Cache.create (cfg ~size:1024 ~assoc:4 ()) in
      List.for_all
        (fun a ->
          ignore (Cache.access c (a * 8));
          Cache.access c (a * 8))
        addrs)

let qcheck_fully_assoc_beats_direct =
  QCheck.Test.make ~name:"fully associative never misses more than direct (LRU, same size)"
    ~count:50
    QCheck.(list_of_size Gen.(int_range 50 300) (int_bound 64))
    (fun lines ->
      (* Sequential-reuse patterns: compare misses. Note: this is not a
         theorem for arbitrary patterns (Belady anomalies exist across
         organisations), so restrict to small line universes where LRU
         full associativity dominates in practice. *)
      let direct = Cache.create (cfg ~size:512 ~assoc:1 ()) in
      let full = Cache.create (cfg ~size:512 ~assoc:0 ()) in
      List.iter
        (fun l ->
          ignore (Cache.access direct (l * 32));
          ignore (Cache.access full (l * 32)))
        lines;
      (* loose check: full-assoc within 2x of direct's misses *)
      Cache.misses full <= (2 * Cache.misses direct) + 16)

let () =
  Alcotest.run "pc_caches"
    [
      ( "config",
        [
          Alcotest.test_case "validation" `Quick test_config_validation;
          Alcotest.test_case "names" `Quick test_config_names;
          Alcotest.test_case "ways" `Quick test_ways;
        ] );
      ( "cache",
        [
          Alcotest.test_case "cold miss then hit" `Quick test_cold_miss_then_hit;
          Alcotest.test_case "direct-mapped conflicts" `Quick test_direct_mapped_conflict;
          Alcotest.test_case "2-way avoids the conflict" `Quick test_two_way_no_conflict;
          Alcotest.test_case "LRU replacement" `Quick test_lru_replacement;
          Alcotest.test_case "fully associative capacity" `Quick
            test_fully_associative_capacity;
          Alcotest.test_case "counters and reset" `Quick test_counters_and_reset;
          Alcotest.test_case "bigger cache never worse (seq walk)" `Quick
            test_bigger_cache_never_worse;
          QCheck_alcotest.to_alcotest qcheck_miss_rate_bounds;
          QCheck_alcotest.to_alcotest qcheck_repeat_hits;
          QCheck_alcotest.to_alcotest qcheck_fully_assoc_beats_direct;
        ] );
      ( "replacement",
        [
          Alcotest.test_case "FIFO differs from LRU" `Quick test_fifo_differs_from_lru;
        ] );
      ( "hierarchy",
        [
          Alcotest.test_case "latencies" `Quick test_hierarchy_latencies;
          Alcotest.test_case "counters" `Quick test_hierarchy_counters;
          Alcotest.test_case "without L2" `Quick test_hierarchy_no_l2;
          Alcotest.test_case "shared L2 reset reuse" `Quick
            test_shared_l2_reset_reuse;
        ] );
      ( "study",
        [
          Alcotest.test_case "the 28 configurations" `Quick test_study_configs;
          Alcotest.test_case "trace run" `Quick test_study_run_trace;
          Alcotest.test_case "relative MPI" `Quick test_relative_mpi;
          Alcotest.test_case "relative MPI degenerate reference" `Quick
            test_relative_mpi_degenerate;
          QCheck_alcotest.to_alcotest qcheck_lru_inclusion;
        ] );
      ( "onepass",
        [
          Alcotest.test_case "matches the simulated oracle" `Quick
            test_onepass_matches_oracle;
          Alcotest.test_case "warmup boundary exactness" `Quick
            test_onepass_warmup_boundary;
          Alcotest.test_case "all registry workloads" `Slow
            test_onepass_all_workloads;
          Alcotest.test_case "rejects non-LRU grids" `Quick
            test_onepass_rejects_non_lru;
          QCheck_alcotest.to_alcotest qcheck_onepass_oracle;
        ] );
      ( "funcsim data stream",
        [
          Alcotest.test_case "matches the reference interpreter" `Quick
            test_data_refs_match_reference;
          Alcotest.test_case "resumes across calls" `Quick test_data_refs_resume;
        ] );
      ( "oracle",
        [
          QCheck_alcotest.to_alcotest qcheck_cache_matches_ref;
          QCheck_alcotest.to_alcotest qcheck_grid_matches_ref;
        ] );
    ]
