type config =
  | Taken
  | Not_taken
  | Bimodal of int
  | Gap of { history_bits : int; tables : int }
  | Gshare of { history_bits : int; entries : int }
  | Pap of { history_bits : int; tables : int }
  | Tournament of { meta_entries : int; a : config; b : config }
  | Perfect

let base_gap = Gap { history_bits = 8; tables = 256 }

let rec config_name = function
  | Taken -> "taken"
  | Not_taken -> "not-taken"
  | Bimodal n -> Printf.sprintf "bimodal-%d" n
  | Gap { history_bits; tables } -> Printf.sprintf "gap-h%d-t%d" history_bits tables
  | Gshare { history_bits; entries } ->
    Printf.sprintf "gshare-h%d-e%d" history_bits entries
  | Pap { history_bits; tables } -> Printf.sprintf "pap-h%d-t%d" history_bits tables
  | Tournament { a; b; _ } ->
    Printf.sprintf "tournament(%s,%s)" (config_name a) (config_name b)
  | Perfect -> "perfect"

let is_pow2 n = n > 0 && n land (n - 1) = 0

type state =
  | S_static of bool
  | S_bimodal of { mask : int; counters : int array }
  | S_gap of {
      table_mask : int;
      hist_mask : int;
      mutable history : int;
      counters : int array;  (** [table * hist_entries + history] *)
      hist_entries : int;
    }
  | S_gshare of { mask : int; hist_mask : int; mutable history : int; counters : int array }
  | S_pap of {
      table_mask : int;
      hist_mask : int;
      histories : int array;  (** per-address history registers *)
      counters : int array;
      hist_entries : int;
    }
  | S_tournament of { meta_mask : int; meta : int array; a : t; b : t }
  | S_perfect

and t = { state : state; mutable lookups : int; mutable mispredictions : int }

let rec create cfg =
  let state =
    match cfg with
    | Taken -> S_static true
    | Not_taken -> S_static false
    | Bimodal entries ->
      if not (is_pow2 entries) then
        invalid_arg "Predictor.create: bimodal entries must be a power of two";
      (* Counters start weakly taken (2), matching common practice. *)
      S_bimodal { mask = entries - 1; counters = Array.make entries 2 }
    | Gap { history_bits; tables } ->
      if history_bits < 1 || history_bits > 20 then
        invalid_arg "Predictor.create: history bits out of range";
      if not (is_pow2 tables) then
        invalid_arg "Predictor.create: table count must be a power of two";
      let hist_entries = 1 lsl history_bits in
      S_gap
        {
          table_mask = tables - 1;
          hist_mask = hist_entries - 1;
          history = 0;
          counters = Array.make (tables * hist_entries) 2;
          hist_entries;
        }
    | Gshare { history_bits; entries } ->
      if not (is_pow2 entries) then
        invalid_arg "Predictor.create: gshare entries must be a power of two";
      if history_bits < 1 || history_bits > 24 then
        invalid_arg "Predictor.create: history bits out of range";
      S_gshare
        {
          mask = entries - 1;
          hist_mask = (1 lsl history_bits) - 1;
          history = 0;
          counters = Array.make entries 2;
        }
    | Pap { history_bits; tables } ->
      if history_bits < 1 || history_bits > 16 then
        invalid_arg "Predictor.create: history bits out of range";
      if not (is_pow2 tables) then
        invalid_arg "Predictor.create: table count must be a power of two";
      let hist_entries = 1 lsl history_bits in
      S_pap
        {
          table_mask = tables - 1;
          hist_mask = hist_entries - 1;
          histories = Array.make tables 0;
          counters = Array.make (tables * hist_entries) 2;
          hist_entries;
        }
    | Tournament { meta_entries; a; b } ->
      if not (is_pow2 meta_entries) then
        invalid_arg "Predictor.create: meta entries must be a power of two";
      S_tournament
        { meta_mask = meta_entries - 1; meta = Array.make meta_entries 2; a = create a; b = create b }
    | Perfect -> S_perfect
  in
  { state; lookups = 0; mispredictions = 0 }

let counter_index state pc =
  match state with
  | S_bimodal { mask; _ } -> pc land mask
  | S_gap g -> ((pc land g.table_mask) * g.hist_entries) + (g.history land g.hist_mask)
  | S_gshare g -> (pc lxor g.history) land g.mask
  | S_pap p ->
    let t = pc land p.table_mask in
    (t * p.hist_entries) + (p.histories.(t) land p.hist_mask)
  | S_static _ | S_perfect | S_tournament _ -> 0

let rec predict t ~pc =
  match t.state with
  | S_static d -> d
  | S_perfect -> true
  | S_bimodal { counters; _ } as s -> counters.(counter_index s pc) >= 2
  | S_gap g as s -> g.counters.(counter_index s pc) >= 2
  | S_gshare g as s -> g.counters.(counter_index s pc) >= 2
  | S_pap p as s -> p.counters.(counter_index s pc) >= 2
  | S_tournament tn ->
    if tn.meta.(pc land tn.meta_mask) >= 2 then predict tn.b ~pc else predict tn.a ~pc

let bump counters i taken =
  counters.(i) <-
    (if taken then Int.min 3 (counters.(i) + 1) else Int.max 0 (counters.(i) - 1))

let rec update t ~pc ~taken =
  match t.state with
  | S_static _ | S_perfect -> ()
  | S_bimodal { counters; _ } as s -> bump counters (counter_index s pc) taken
  | S_gap g as s ->
    bump g.counters (counter_index s pc) taken;
    g.history <- ((g.history lsl 1) lor if taken then 1 else 0) land g.hist_mask
  | S_gshare g as s ->
    bump g.counters (counter_index s pc) taken;
    g.history <- ((g.history lsl 1) lor if taken then 1 else 0) land g.hist_mask
  | S_pap p as s ->
    bump p.counters (counter_index s pc) taken;
    let tbl = pc land p.table_mask in
    p.histories.(tbl) <-
      ((p.histories.(tbl) lsl 1) lor if taken then 1 else 0) land p.hist_mask
  | S_tournament tn ->
    let ca = predict tn.a ~pc = taken and cb = predict tn.b ~pc = taken in
    let i = pc land tn.meta_mask in
    (* train the chooser towards the component that was right *)
    if cb && not ca then tn.meta.(i) <- Int.min 3 (tn.meta.(i) + 1)
    else if ca && not cb then tn.meta.(i) <- Int.max 0 (tn.meta.(i) - 1);
    update tn.a ~pc ~taken;
    update tn.b ~pc ~taken

let observe t ~pc ~taken =
  t.lookups <- t.lookups + 1;
  let correct =
    match t.state with S_perfect -> true | _ -> predict t ~pc = taken
  in
  if not correct then t.mispredictions <- t.mispredictions + 1;
  update t ~pc ~taken;
  correct

let lookups t = t.lookups
let mispredictions t = t.mispredictions

let misprediction_rate t =
  if t.lookups = 0 then 0.0
  else float_of_int t.mispredictions /. float_of_int t.lookups
