module Rng = Pc_util.Rng

let dep_bounds = [| 1; 2; 4; 6; 8; 16; 32 |]

let sample_distance rng fractions =
  let u = Rng.float rng 1.0 in
  let n = Array.length fractions in
  let acc = ref 0.0 and found = ref (-1) and i = ref 0 in
  while !found < 0 && !i < n do
    acc := !acc +. fractions.(!i);
    if !acc >= u then found := !i;
    incr i
  done;
  let bucket = if !found < 0 then n - 1 else !found in
  if bucket >= Array.length dep_bounds then 33 + Rng.int rng 16
  else
    let hi = dep_bounds.(bucket) in
    let lo = if bucket = 0 then 1 else dep_bounds.(bucket - 1) + 1 in
    lo + Rng.int rng (hi - lo + 1)

type mem_op = {
  static_pc : int;
  is_store : bool;
  stride : int;
  stream_length : int;
  footprint : int;
  window_span : int;
  region : int;
  row_stride : int;
  refs : int;
  single_stride_refs : int;
}

type branch_behaviour = { execs : int; taken_rate : float; transition_rate : float }

type node = {
  id : int;
  pred_start : int;
  start : int;
  count : int;
  size : int;
  mix : float array;
  dep_fractions : float array;
  mem_ops : mem_op array;
  branch : branch_behaviour option;
  successors : (int * float) array;
}

type t = {
  name : string;
  instr_count : int;
  nodes : node array;
  global_mix : float array;
  avg_block_size : float;
  single_stride_fraction : float;
  unique_streams : int;
}

let node_cdf t =
  let total =
    Array.fold_left (fun acc n -> acc +. float_of_int n.count) 0.0 t.nodes
  in
  let acc = ref 0.0 in
  Array.map
    (fun n ->
      acc := !acc +. (float_of_int n.count /. total);
      !acc)
    t.nodes

let dep_distribution t =
  let n_buckets = Array.length dep_bounds + 1 in
  let acc = Array.make n_buckets 0.0 in
  let total = ref 0.0 in
  Array.iter
    (fun n ->
      let w = float_of_int n.count in
      Array.iteri
        (fun i f -> if i < n_buckets then acc.(i) <- acc.(i) +. (w *. f))
        n.dep_fractions;
      total := !total +. w)
    t.nodes;
  if !total > 0.0 then Array.map (fun v -> v /. !total) acc else acc

let branch_rates t =
  let execs = ref 0.0 and taken = ref 0.0 and trans = ref 0.0 in
  Array.iter
    (fun n ->
      match n.branch with
      | None -> ()
      | Some b ->
        let w = float_of_int b.execs in
        execs := !execs +. w;
        taken := !taken +. (w *. b.taken_rate);
        trans := !trans +. (w *. b.transition_rate))
    t.nodes;
  if !execs > 0.0 then Some (!taken /. !execs, !trans /. !execs) else None

let pp_summary ppf t =
  Format.fprintf ppf "profile %s: %d dynamic instrs, %d SFG nodes@." t.name
    t.instr_count (Array.length t.nodes);
  Format.fprintf ppf "  avg block size %.2f, single-stride fraction %.3f, %d streams@."
    t.avg_block_size t.single_stride_fraction t.unique_streams;
  Format.fprintf ppf "  mix:";
  Array.iteri
    (fun ci frac ->
      if frac > 0.001 then
        Format.fprintf ppf " %s=%.3f"
          (Pc_isa.Instr.class_name (Pc_isa.Instr.class_of_index ci))
          frac)
    t.global_mix;
  Format.fprintf ppf "@."

(* --- serialisation: one record per line, space-separated --- *)

let write_floats oc a =
  Array.iter (fun v -> Printf.fprintf oc " %h" v) a

let save oc t =
  Printf.fprintf oc "perfclone-profile 5\n";
  Printf.fprintf oc "name %s\n" t.name;
  Printf.fprintf oc "instr_count %d\n" t.instr_count;
  Printf.fprintf oc "avg_block_size %h\n" t.avg_block_size;
  Printf.fprintf oc "single_stride_fraction %h\n" t.single_stride_fraction;
  Printf.fprintf oc "unique_streams %d\n" t.unique_streams;
  Printf.fprintf oc "global_mix";
  write_floats oc t.global_mix;
  Printf.fprintf oc "\n";
  Printf.fprintf oc "nodes %d\n" (Array.length t.nodes);
  Array.iter
    (fun n ->
      Printf.fprintf oc "node %d %d %d %d %d\n" n.id n.pred_start n.start n.count
        n.size;
      Printf.fprintf oc "mix";
      write_floats oc n.mix;
      Printf.fprintf oc "\n";
      Printf.fprintf oc "deps";
      write_floats oc n.dep_fractions;
      Printf.fprintf oc "\n";
      Printf.fprintf oc "mem_ops %d\n" (Array.length n.mem_ops);
      Array.iter
        (fun m ->
          Printf.fprintf oc "mem %d %d %d %d %d %d %d %d %d %d\n" m.static_pc
            (if m.is_store then 1 else 0)
            m.stride m.stream_length m.footprint m.window_span m.region
            m.row_stride m.refs m.single_stride_refs)
        n.mem_ops;
      (match n.branch with
      | None -> Printf.fprintf oc "branch none\n"
      | Some b ->
        Printf.fprintf oc "branch %d %h %h\n" b.execs b.taken_rate b.transition_rate);
      Printf.fprintf oc "succs %d" (Array.length n.successors);
      Array.iter (fun (id, p) -> Printf.fprintf oc " %d %h" id p) n.successors;
      Printf.fprintf oc "\n")
    t.nodes

exception Parse of string

(* Every count and id a consumer indexes or allocates with is checked
   here, so a damaged file is an [Error] naming its line rather than an
   exception in whichever consumer trips over it.  Records are read
   into lists, never into arrays sized by a count from the file, so a
   corrupt count fails at the end of the text instead of allocating. *)
let parse text =
  let lines = ref (String.split_on_char '\n' text) in
  let lineno = ref 0 in
  let fail fmt = Printf.ksprintf (fun m -> raise (Parse m)) fmt in
  let expect_tokens expected =
    match !lines with
    | [] | [ "" ] ->
      incr lineno;
      fail "unexpected end of file"
    | l :: rest -> (
      lines := rest;
      incr lineno;
      match String.split_on_char ' ' l with
      | tok :: toks when tok = expected -> toks
      | _ -> fail "expected %S, got %S" expected l)
  in
  let parse_float s =
    match float_of_string_opt s with Some v -> v | None -> fail "bad float %S" s
  in
  let parse_int s =
    match int_of_string_opt s with Some v -> v | None -> fail "bad int %S" s
  in
  let count what s =
    let n = parse_int s in
    if n < 0 then fail "negative %s %d" what n;
    n
  in
  let one key =
    match expect_tokens key with
    | [ v ] -> v
    | _ -> fail "%s: expected one value" key
  in
  let floats key n =
    let v = Array.of_list (List.map parse_float (expect_tokens key)) in
    if Array.length v <> n then
      fail "%s: expected %d values, got %d" key n (Array.length v);
    v
  in
  let rec read_n n f i acc =
    if i = n then Array.of_list (List.rev acc)
    else read_n n f (i + 1) (f i :: acc)
  in
  let mem_op _ =
    match expect_tokens "mem" with
    | [ a; b; c; d; e; f; g; h; k; l ] ->
      {
        static_pc = parse_int a;
        is_store =
          (match b with
          | "0" -> false
          | "1" -> true
          | _ -> fail "bad store flag %S" b);
        stride = parse_int c;
        stream_length = count "stream length" d;
        footprint = count "footprint" e;
        window_span = count "window span" f;
        region = parse_int g;
        row_stride = parse_int h;
        refs = count "refs" k;
        single_stride_refs = count "single-stride refs" l;
      }
    | _ -> fail "bad mem record"
  in
  let node n_nodes i =
    let id, pred_start, start, count_, size =
      match expect_tokens "node" with
      | [ a; b; c; d; e ] ->
        ( parse_int a,
          parse_int b,
          parse_int c,
          count "node count" d,
          count "node size" e )
      | _ -> fail "bad node header"
    in
    if id <> i then fail "node %d out of order (expected %d)" id i;
    let mix = floats "mix" Pc_isa.Instr.class_count in
    let dep_fractions = floats "deps" (Array.length dep_bounds + 1) in
    let mem_ops = read_n (count "mem_ops" (one "mem_ops")) mem_op 0 [] in
    let branch =
      match expect_tokens "branch" with
      | [ "none" ] -> None
      | [ a; b; c ] ->
        Some
          {
            execs = count "branch execs" a;
            taken_rate = parse_float b;
            transition_rate = parse_float c;
          }
      | _ -> fail "bad branch record"
    in
    let successors =
      match expect_tokens "succs" with
      | n :: rest ->
        let n = count "succs" n in
        let arr = Array.of_list rest in
        if Array.length arr <> 2 * n then fail "bad succs record";
        Array.init n (fun k ->
            let succ = parse_int arr.(2 * k) in
            if succ < 0 || succ >= n_nodes then
              fail "successor %d outside [0, %d)" succ n_nodes;
            (succ, parse_float arr.((2 * k) + 1)))
      | [] -> fail "bad succs record"
    in
    {
      id;
      pred_start;
      start;
      count = count_;
      size;
      mix;
      dep_fractions;
      mem_ops;
      branch;
      successors;
    }
  in
  try
    if one "perfclone-profile" <> "5" then fail "unsupported version";
    let name = String.concat " " (expect_tokens "name") in
    let instr_count = count "instr_count" (one "instr_count") in
    let avg_block_size = parse_float (one "avg_block_size") in
    let single_stride_fraction = parse_float (one "single_stride_fraction") in
    let unique_streams = count "unique_streams" (one "unique_streams") in
    let global_mix = floats "global_mix" Pc_isa.Instr.class_count in
    let n_nodes = count "nodes" (one "nodes") in
    if n_nodes = 0 then fail "no SFG nodes";
    let nodes = read_n n_nodes (node n_nodes) 0 [] in
    Ok
      {
        name;
        instr_count;
        nodes;
        global_mix;
        avg_block_size;
        single_stride_fraction;
        unique_streams;
      }
  with Parse msg -> Error (Printf.sprintf "%d: %s" !lineno msg)

let load ic = parse (In_channel.input_all ic)
