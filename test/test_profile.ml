(* Tests for pc_profile: SFG construction, instruction mix, dependency
   distances, stride/footprint/run detection, branch rates, and profile
   serialisation. *)

module I = Pc_isa.Instr
module Asm = Pc_isa.Asm
module Program = Pc_isa.Program
module Profile = Pc_profile.Profile
module Collector = Pc_profile.Collector

let loop ?(iters = 100) body =
  Asm.assemble ~name:"t"
    ([ Asm.Ins (I.Li (20, Int64.of_int iters)); Asm.Label "top" ]
    @ List.map (fun i -> Asm.Ins i) body
    @ [
        Asm.Ins (I.Alui (I.Add, 20, 20, -1));
        Asm.Ins (I.Br (I.Gt_z, 20, I.Label "top"));
        Asm.Ins I.Halt;
      ])

(* --- global mix --- *)

let test_global_mix () =
  let p = loop [ I.Alu (I.Add, 1, 2, 3); I.Fmul (1, 2, 3); I.Load (4, 29, 0) ] in
  let prof = Collector.profile p in
  let frac c = prof.Profile.global_mix.(I.class_index c) in
  (* body of 6 per iteration: add, fmul, load, addi, branch (+Li, Halt once) *)
  Alcotest.(check bool) "mix sums to 1" true
    (abs_float (Array.fold_left ( +. ) 0.0 prof.Profile.global_mix -. 1.0) < 1e-9);
  Alcotest.(check bool) "int_alu ~2/5" true (abs_float (frac I.C_int_alu -. 0.4) < 0.02);
  Alcotest.(check bool) "fp_mul ~1/5" true (abs_float (frac I.C_fp_mul -. 0.2) < 0.02);
  Alcotest.(check bool) "load ~1/5" true (abs_float (frac I.C_load -. 0.2) < 0.02);
  Alcotest.(check bool) "branch ~1/5" true (abs_float (frac I.C_branch -. 0.2) < 0.02)

(* --- SFG structure --- *)

let test_sfg_nodes_and_successors () =
  (* if/else alternating by parity: two distinct successor blocks *)
  let p =
    Asm.assemble ~name:"t"
      [
        Asm.Ins (I.Li (20, 100L));
        Asm.Label "top";
        Asm.Ins (I.Alui (I.And, 1, 20, 1));
        Asm.Ins (I.Br (I.Eq_z, 1, I.Label "even"));
        Asm.Ins (I.Alu (I.Add, 2, 2, 2));
        Asm.Ins (I.Jmp (I.Label "join"));
        Asm.Label "even";
        Asm.Ins (I.Alu (I.Sub, 2, 2, 2));
        Asm.Label "join";
        Asm.Ins (I.Alui (I.Add, 20, 20, -1));
        Asm.Ins (I.Br (I.Gt_z, 20, I.Label "top"));
        Asm.Ins I.Halt;
      ]
  in
  let prof = Collector.profile p in
  Alcotest.(check bool) "several nodes" true (Array.length prof.Profile.nodes >= 4);
  (* the header block (ending in the parity branch) must have 2 successors *)
  let header =
    Array.to_list prof.Profile.nodes
    |> List.filter (fun (n : Profile.node) ->
           Array.length n.Profile.successors = 2 && n.Profile.count > 40)
  in
  Alcotest.(check bool) "a hot 2-successor node exists" true (header <> []);
  Array.iter
    (fun (n : Profile.node) ->
      let total = Array.fold_left (fun a (_, p) -> a +. p) 0.0 n.Profile.successors in
      if Array.length n.Profile.successors > 0 then
        Alcotest.(check (float 1e-6)) "successor probabilities sum to 1" 1.0 total)
    prof.Profile.nodes

let test_node_counts_sum_to_blocks () =
  let p = loop ~iters:50 [ I.Alu (I.Add, 1, 2, 3) ] in
  let prof = Collector.profile p in
  let total = Array.fold_left (fun a n -> a + n.Profile.count) 0 prof.Profile.nodes in
  (* 50 loop bodies + preamble/halt block *)
  Alcotest.(check bool) "block executions counted" true (total >= 50)

(* --- dependency distances --- *)

let test_dep_distance_short_chain () =
  (* each instruction reads the previous one's result: distance 1 *)
  let p = loop [ I.Alu (I.Add, 1, 1, 0); I.Alu (I.Add, 1, 1, 0); I.Alu (I.Add, 1, 1, 0) ] in
  let prof = Collector.profile p in
  (* body nodes: most dependencies fall in bucket 0 (distance 1) *)
  let hot =
    Array.to_list prof.Profile.nodes
    |> List.filter (fun n -> n.Profile.count > 50)
  in
  Alcotest.(check bool) "found hot node" true (hot <> []);
  List.iter
    (fun (n : Profile.node) ->
      Alcotest.(check bool) "distance-1 dominates" true (n.Profile.dep_fractions.(0) > 0.5))
    hot

let test_dep_distance_long () =
  (* producers separated by 16 filler instructions reading r9 only *)
  let body =
    [ I.Alu (I.Add, 1, 2, 3) ]
    @ List.init 16 (fun _ -> I.Alu (I.Add, 9, 10, 11))
    @ [ I.Alu (I.Add, 4, 1, 1) ] (* reads r1: distance 17 -> bucket <=32 *)
  in
  let p = loop body in
  let prof = Collector.profile p in
  let hot =
    Array.to_list prof.Profile.nodes |> List.find (fun n -> n.Profile.count > 50)
  in
  (* bucket 6 covers distances 17..32 *)
  Alcotest.(check bool) "long-distance bucket populated" true
    (hot.Profile.dep_fractions.(6) > 0.01)

(* --- memory behaviour --- *)

let walk_program ~stride ~resets =
  Asm.assemble ~name:"walk"
    [
      Asm.Ins (I.Li (20, Int64.of_int resets));
      Asm.Label "outer";
      Asm.Ins (I.Li (21, Int64.of_int Program.data_base));
      Asm.Ins (I.Li (22, 64L));
      Asm.Label "top";
      Asm.Ins (I.Load (1, 21, 0));
      Asm.Ins (I.Alui (I.Add, 21, 21, stride));
      Asm.Ins (I.Alui (I.Add, 22, 22, -1));
      Asm.Ins (I.Br (I.Gt_z, 22, I.Label "top"));
      Asm.Ins (I.Alui (I.Add, 20, 20, -1));
      Asm.Ins (I.Br (I.Gt_z, 20, I.Label "outer"));
      Asm.Ins I.Halt;
    ]

let find_walk_op prof =
  let found = ref None in
  Array.iter
    (fun (n : Profile.node) ->
      Array.iter
        (fun (m : Profile.mem_op) -> if m.Profile.refs > 100 then found := Some m)
        n.Profile.mem_ops)
    prof.Profile.nodes;
  match !found with Some m -> m | None -> Alcotest.fail "walk op not found"

let test_stride_detection () =
  let prof = Collector.profile (walk_program ~stride:16 ~resets:10) in
  let m = find_walk_op prof in
  Alcotest.(check int) "dominant stride" 16 m.Profile.stride;
  Alcotest.(check bool) "mostly single stride" true
    (float_of_int m.Profile.single_stride_refs /. float_of_int m.Profile.refs > 0.9)

let test_footprint_and_runs () =
  let prof = Collector.profile (walk_program ~stride:8 ~resets:10) in
  let m = find_walk_op prof in
  (* 64 accesses of stride 8: footprint = 64*8 bytes *)
  Alcotest.(check int) "footprint" 512 m.Profile.footprint;
  (* runs break at each outer reset: average run near 64 *)
  Alcotest.(check bool) "run length near 64" true
    (m.Profile.stream_length > 55 && m.Profile.stream_length <= 70);
  Alcotest.(check int) "region is the array base" Program.data_base m.Profile.region

let test_single_stride_fraction_pure_walk () =
  let prof = Collector.profile (walk_program ~stride:8 ~resets:5) in
  Alcotest.(check bool) "fraction above 0.9" true
    (prof.Profile.single_stride_fraction > 0.9)

let test_row_stride_detection () =
  (* A 2-D walk: 16 rows of 8 elements; rows are 256 bytes apart. *)
  let p =
    Asm.assemble ~name:"grid"
      [
        Asm.Ins (I.Li (20, 16L)) (* rows *);
        Asm.Ins (I.Li (21, Int64.of_int Program.data_base));
        Asm.Label "row";
        Asm.Ins (I.Li (22, 8L)) (* columns *);
        Asm.Ins (I.Alui (I.Add, 23, 21, 0));
        Asm.Label "col";
        Asm.Ins (I.Load (1, 23, 0));
        Asm.Ins (I.Alui (I.Add, 23, 23, 8));
        Asm.Ins (I.Alui (I.Add, 22, 22, -1));
        Asm.Ins (I.Br (I.Gt_z, 22, I.Label "col"));
        Asm.Ins (I.Alui (I.Add, 21, 21, 256));
        Asm.Ins (I.Alui (I.Add, 20, 20, -1));
        Asm.Ins (I.Br (I.Gt_z, 20, I.Label "row"));
        Asm.Ins I.Halt;
      ]
  in
  let prof = Collector.profile p in
  let m = find_walk_op prof in
  Alcotest.(check int) "element stride" 8 m.Profile.stride;
  Alcotest.(check int) "row stride" 256 m.Profile.row_stride;
  Alcotest.(check bool) "run length near 8" true
    (m.Profile.stream_length >= 6 && m.Profile.stream_length <= 9)

let test_no_row_stride_for_1d () =
  let prof = Collector.profile (walk_program ~stride:8 ~resets:10) in
  let m = find_walk_op prof in
  (* 1-D re-walks: the only run transition is the reset jump back, which
     is a constant -footprint delta — acceptable as a "row", but it must
     be the reset distance, not noise. *)
  Alcotest.(check bool) "row stride is the reset or zero" true
    (m.Profile.row_stride = 0 || m.Profile.row_stride < 0)

let test_scalar_op () =
  let p = loop ~iters:200 [ I.Load (1, 29, 0) ] in
  let prof = Collector.profile p in
  let m = find_walk_op prof in
  Alcotest.(check int) "stride zero" 0 m.Profile.stride;
  Alcotest.(check int) "footprint one word" 8 m.Profile.footprint

(* --- branch behaviour --- *)

let branch_node_of prof =
  let best = ref None in
  Array.iter
    (fun (n : Profile.node) ->
      match n.Profile.branch with
      | Some b when b.Profile.execs > 50 -> best := Some b
      | _ -> ())
    prof.Profile.nodes;
  match !best with Some b -> b | None -> Alcotest.fail "no hot branch"

let test_biased_branch () =
  let p = loop ~iters:200 [ I.Alu (I.Add, 1, 2, 3) ] in
  let prof = Collector.profile p in
  let b = branch_node_of prof in
  (* loop back-edge: taken 199 of 200 *)
  Alcotest.(check bool) "high taken rate" true (b.Profile.taken_rate > 0.95);
  Alcotest.(check bool) "low transition rate" true (b.Profile.transition_rate < 0.05)

let test_alternating_branch () =
  let p =
    Asm.assemble ~name:"alt"
      [
        Asm.Ins (I.Li (20, 200L));
        Asm.Label "top";
        Asm.Ins (I.Alui (I.And, 1, 20, 1));
        Asm.Ins (I.Br (I.Eq_z, 1, I.Label "skip"));
        Asm.Label "skip";
        Asm.Ins (I.Alui (I.Add, 20, 20, -1));
        Asm.Ins (I.Br (I.Gt_z, 20, I.Label "top"));
        Asm.Ins I.Halt;
      ]
  in
  let prof = Collector.profile p in
  let alt =
    Array.to_list prof.Profile.nodes
    |> List.filter_map (fun (n : Profile.node) -> n.Profile.branch)
    |> List.filter (fun (b : Profile.branch_behaviour) ->
           b.Profile.execs > 50 && b.Profile.taken_rate > 0.3 && b.Profile.taken_rate < 0.7)
  in
  match alt with
  | b :: _ ->
    Alcotest.(check bool) "transition rate near 1" true (b.Profile.transition_rate > 0.9)
  | [] -> Alcotest.fail "alternating branch not profiled"

(* --- aggregates and serialisation --- *)

let test_instr_count_and_block_size () =
  let p = loop ~iters:10 [ I.Alu (I.Add, 1, 2, 3) ] in
  let prof = Collector.profile p in
  Alcotest.(check int) "instr count" (1 + (10 * 3) + 1) prof.Profile.instr_count;
  Alcotest.(check bool) "avg block size sane" true
    (prof.Profile.avg_block_size > 1.0 && prof.Profile.avg_block_size < 10.0)

let test_profile_roundtrip () =
  let entry = Pc_workloads.Registry.find "crc32" in
  let prof =
    Collector.profile ~max_instrs:100_000 (Pc_workloads.Registry.compile entry)
  in
  let path = Filename.temp_file "perfclone" ".profile" in
  let oc = open_out path in
  Profile.save oc prof;
  close_out oc;
  let ic = open_in path in
  let prof2 =
    match Profile.load ic with
    | Ok p -> p
    | Error msg -> Alcotest.failf "load: %s" msg
  in
  close_in ic;
  Sys.remove path;
  Alcotest.(check string) "name" prof.Profile.name prof2.Profile.name;
  Alcotest.(check int) "instr count" prof.Profile.instr_count prof2.Profile.instr_count;
  Alcotest.(check int) "nodes" (Array.length prof.Profile.nodes)
    (Array.length prof2.Profile.nodes);
  Alcotest.(check int) "streams" prof.Profile.unique_streams prof2.Profile.unique_streams;
  (* structural equality of a sample node *)
  let n1 = prof.Profile.nodes.(0) and n2 = prof2.Profile.nodes.(0) in
  Alcotest.(check int) "node size" n1.Profile.size n2.Profile.size;
  Alcotest.(check int) "node mem ops" (Array.length n1.Profile.mem_ops)
    (Array.length n2.Profile.mem_ops);
  Alcotest.(check bool) "mix equal" true (n1.Profile.mix = n2.Profile.mix);
  Alcotest.(check bool) "clone from loaded profile identical" true
    (Pc_synth.Synth.generate prof = Pc_synth.Synth.generate prof2)

let test_load_rejects_garbage () =
  let path = Filename.temp_file "perfclone" ".bad" in
  let oc = open_out path in
  output_string oc "not a profile\n";
  close_out oc;
  let ic = open_in path in
  let result = Profile.load ic in
  close_in ic;
  Sys.remove path;
  match result with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error msg ->
    Alcotest.(check string) "names the line" "1: expected \"perfclone-profile\", got \"not a profile\"" msg

(* Every truncation and every one-byte replacement (from characters
   that make plausible damage: a sign, a digit, a token or line split,
   junk) of a real saved profile either parses to an [Error] or yields
   a profile the clone generator accepts.  Nothing raises: no negative
   array size, no out-of-range successor reaching [Synth.generate]. *)
let test_damaged_profiles_never_raise () =
  let prof =
    Collector.profile ~max_instrs:20_000
      (Pc_workloads.Registry.compile (Pc_workloads.Registry.find "crc32"))
  in
  let path = Filename.temp_file "perfclone" ".profile" in
  Out_channel.with_open_bin path (fun oc -> Profile.save oc prof);
  let text = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  let accepted = ref 0 in
  let check what damaged =
    match Profile.parse damaged with
    | Error _ -> ()
    | Ok p -> (
      incr accepted;
      match Pc_synth.Synth.generate p with
      | _ -> ()
      | exception e ->
        Alcotest.failf "generate raised %s (%s)" (Printexc.to_string e) what)
    | exception e ->
      Alcotest.failf "parse raised %s (%s)" (Printexc.to_string e) what
  in
  let n = String.length text in
  for i = 0 to n do
    check (Printf.sprintf "truncated to %d bytes" i) (String.sub text 0 i)
  done;
  for i = 0 to n - 1 do
    List.iter
      (fun c ->
        let b = Bytes.of_string text in
        Bytes.set b i c;
        check (Printf.sprintf "byte %d set to %C" i c) (Bytes.to_string b))
      [ '-'; '9'; ' '; '\n'; 'x' ]
  done;
  (* An empty SFG is damage too: the generator has nothing to walk. *)
  check "nodes 0"
    (String.concat "\n"
       (List.map
          (fun l ->
            if String.length l > 6 && String.sub l 0 6 = "nodes " then "nodes 0"
            else l)
          (String.split_on_char '\n' text)));
  (* The undamaged text is among the accepted inputs. *)
  Alcotest.(check bool) "some damage still parses" true (!accepted > 1)

(* [~start] skips ahead with a first call on the machine and profiles
   with a second; [funcsim.runs] counts the machine once. *)
let test_profile_start_is_one_run () =
  let runs = Pc_obs.Metrics.counter "funcsim.runs" in
  let before = Pc_obs.Metrics.value runs in
  ignore (Collector.profile ~start:1000 (loop ~iters:1000 [ I.Alu (I.Add, 1, 2, 3) ]));
  Alcotest.(check int) "funcsim.runs grew by one" 1 (Pc_obs.Metrics.value runs - before)

let test_node_cdf () =
  let p = loop ~iters:50 [ I.Alu (I.Add, 1, 2, 3) ] in
  let prof = Collector.profile p in
  let cdf = Profile.node_cdf prof in
  Alcotest.(check int) "cdf length" (Array.length prof.Profile.nodes) (Array.length cdf);
  Alcotest.(check (float 1e-9)) "cdf ends at 1" 1.0 cdf.(Array.length cdf - 1);
  Array.iteri
    (fun i v -> if i > 0 && v < cdf.(i - 1) then Alcotest.fail "cdf not monotone")
    cdf

(* --- pinned md5s ---

   MD5s of [Profile.save] for the quick set at the quick profiling budget,
   plus one slice that starts past the program's first instructions.
   They were recorded before the collector moved from per-event records
   to batched rows, so a collector that changes one byte of any profile
   fails here. *)

let saved_md5 prof =
  let path = Filename.temp_file "perfclone" ".profile" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out_bin path in
  Profile.save oc prof;
  close_out oc;
  Digest.to_hex (Digest.file path)

let pinned_profiles =
  [
    ("crc32", 0, 300_000, "4beb9d58b3d1c24d1994a847192b937b");
    ("qsort", 0, 300_000, "6691ab98e5ae892a44c3cda26746855d");
    ("sha", 0, 300_000, "cd650e67ba5c6c0a6d0ad85f354a9ae0");
    ("fft", 0, 300_000, "4d95272afcdc6104bff2e48dabf63680");
    ("dijkstra", 0, 300_000, "506be65c16ec7d0064b832b85ee9aebb");
    ("qsort", 100_000, 200_000, "c08f79e3943226a29927057b0d04a76e");
  ]

let test_pinned_profiles () =
  List.iter
    (fun (name, start, max_instrs, want) ->
      let program = Pc_workloads.Registry.(compile (find name)) in
      Alcotest.(check string)
        (Printf.sprintf "%s from %d, %d instructions" name start max_instrs)
        want
        (saved_md5 (Collector.profile ~start ~max_instrs program)))
    pinned_profiles

(* --- oracle ---

   The collector against the profiler it replaced ([Collector_ref],
   under [test/oracle]): the same [Profile.save] and [Marshal] bytes on
   every workload, and on budgets and [~start]s that cut a block
   part-way. *)

let agree ?start ?max_instrs ctx program =
  match Collector_ref.mismatch ?start ?max_instrs program with
  | None -> ()
  | Some why -> Alcotest.failf "%s: %s" ctx why

let test_oracle_workloads () =
  List.iter
    (fun (e : Pc_workloads.Registry.entry) ->
      let p = Pc_workloads.Registry.compile e in
      agree ~max_instrs:200_000 e.Pc_workloads.Registry.name p;
      agree ~start:100_000 ~max_instrs:200_000
        (e.Pc_workloads.Registry.name ^ " from 100000")
        p)
    Pc_workloads.Registry.all

(* pc 0 loads the counter, so the first block is pcs 0-5 and every later
   loop block pcs 1-5: node (0, 1) once, then (1, 1).  Budget 8 ends the
   first instance of (0, 1) mid-block, budget 19 a repeat of (1, 1), and
   every start but 0, 6, 11 and 16 lands mid-block. *)
let cut_program =
  loop ~iters:5 [ I.Load (4, 29, 0); I.Alu (I.Add, 4, 4, 4); I.Store (4, 29, 8) ]

let test_oracle_cuts () =
  for budget = 0 to 34 do
    agree ~max_instrs:budget (Printf.sprintf "budget %d" budget) cut_program
  done;
  for start = 0 to 17 do
    agree ~start ~max_instrs:9 (Printf.sprintf "start %d" start) cut_program
  done

let test_oracle_small_programs () =
  let one_block =
    Asm.assemble ~name:"t"
      [ Asm.Ins (I.Li (1, 5L)); Asm.Ins (I.Alu (I.Add, 2, 1, 1)); Asm.Ins I.Halt ]
  in
  agree "one block" one_block;
  let no_mem_no_branch =
    Asm.assemble ~name:"t"
      [
        Asm.Label "top";
        Asm.Ins (I.Alu (I.Add, 1, 1, 2));
        Asm.Ins (I.Mul (2, 1, 1));
        Asm.Ins (I.Jmp (I.Label "top"));
      ]
  in
  agree ~max_instrs:1000 "no memory op and no branch" no_mem_no_branch

let () =
  Alcotest.run "pc_profile"
    [
      ( "mix+sfg",
        [
          Alcotest.test_case "global mix" `Quick test_global_mix;
          Alcotest.test_case "SFG nodes and successors" `Quick
            test_sfg_nodes_and_successors;
          Alcotest.test_case "node counts" `Quick test_node_counts_sum_to_blocks;
          Alcotest.test_case "node cdf" `Quick test_node_cdf;
          Alcotest.test_case "a skipped-ahead profile is one funcsim run" `Quick
            test_profile_start_is_one_run;
        ] );
      ( "dependencies",
        [
          Alcotest.test_case "short chains" `Quick test_dep_distance_short_chain;
          Alcotest.test_case "long distances" `Quick test_dep_distance_long;
        ] );
      ( "memory",
        [
          Alcotest.test_case "stride detection" `Quick test_stride_detection;
          Alcotest.test_case "footprint and run length" `Quick test_footprint_and_runs;
          Alcotest.test_case "single-stride fraction" `Quick
            test_single_stride_fraction_pure_walk;
          Alcotest.test_case "scalar accesses" `Quick test_scalar_op;
          Alcotest.test_case "2-D row-stride detection" `Quick test_row_stride_detection;
          Alcotest.test_case "1-D walks have no spurious rows" `Quick
            test_no_row_stride_for_1d;
        ] );
      ( "branches",
        [
          Alcotest.test_case "biased branch" `Quick test_biased_branch;
          Alcotest.test_case "alternating branch" `Quick test_alternating_branch;
        ] );
      ( "aggregate+io",
        [
          Alcotest.test_case "instruction count and block size" `Quick
            test_instr_count_and_block_size;
          Alcotest.test_case "save/load roundtrip" `Quick test_profile_roundtrip;
          Alcotest.test_case "load rejects garbage" `Quick test_load_rejects_garbage;
          Alcotest.test_case "damaged profiles never raise" `Quick
            test_damaged_profiles_never_raise;
        ] );
      ( "pinned md5s",
        [ Alcotest.test_case "saved profiles" `Quick test_pinned_profiles ] );
      ( "oracle",
        [
          Alcotest.test_case "every workload, whole and sliced" `Quick
            test_oracle_workloads;
          Alcotest.test_case "budgets and starts that cut a block" `Quick
            test_oracle_cuts;
          Alcotest.test_case "one block; no memory op or branch" `Quick
            test_oracle_small_programs;
        ] );
    ]
