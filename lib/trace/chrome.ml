module M = Pc_obs.Metrics
module Event = Pc_obs.Event
module Span = Pc_obs.Span
module Json = Pc_util.Json

(* One counter-track sample: a metric's value at an instant.  Samples
   are produced by the sampler domain (and a final sample at [stop]),
   never by instrumented code, so they stay out of the {!Event} stream
   and out of the -j determinism contract. *)
type sample = { s_ts : float; s_name : string; s_value : int }

type t = {
  path : string;
  epoch : float;
  stop_flag : bool Atomic.t;
  sampler : unit Domain.t option;
  samples : sample list ref;
  restore_enabled : bool;
  restore_collecting : bool;
}

let sample_registry acc =
  let ts = Span.now_s () in
  let snap = M.snapshot () in
  let add acc (s_name, s_value) = { s_ts = ts; s_name; s_value } :: acc in
  List.fold_left add (List.fold_left add acc snap.M.counters) snap.M.gauges

(* --- Chrome trace_event JSON --- *)

let arg = function
  | Event.Int i -> Json.int i
  | Event.Float f -> Json.float f
  | Event.Str s -> Json.Str s

let track_label = function
  | 0 -> "main"
  | i -> Printf.sprintf "worker-%d" i

let ts_us ~epoch ts = Json.fixed 3 (Float.max 0.0 ((ts -. epoch) *. 1e6))

(* Shutdown race: the sampler domain can emit one more sample between the
   stop flag being set and [Domain.join], and on a fast clock it renders
   to the same microsecond as the authoritative final sample taken after
   the join.  Duplicate (name, ts) counter points make the trace depend
   on that race, so keep only the last sample per (name, rendered ts):
   samples arrive chronological, so the final sample wins. *)
let dedupe_samples ~epoch samples =
  let seen = Hashtbl.create 64 in
  List.fold_left
    (fun acc s ->
      let key = (s.s_name, ts_us ~epoch s.s_ts) in
      if Hashtbl.mem seen key then acc
      else begin
        Hashtbl.add seen key ();
        s :: acc
      end)
    []
    (List.rev samples)

let to_json ~epoch events samples =
  let samples = dedupe_samples ~epoch samples in
  let ts_us ts = ts_us ~epoch ts in
  let head ph tid =
    [ ("ph", Json.Str ph); ("pid", Json.int 1); ("tid", Json.int tid) ]
  in
  let meta tid name label =
    Json.Obj
      (head "M" tid
      @ [
          ("name", Json.Str name);
          ("args", Json.Obj [ ("name", Json.Str label) ]);
        ])
  in
  let tracks =
    List.sort_uniq compare (List.map (fun (e : Event.t) -> e.Event.track) events)
  in
  (* Stable sort: per-track order (chronological by construction) breaks
     timestamp ties, keeping Begin/End nesting valid per track. *)
  let events =
    List.stable_sort
      (fun (a : Event.t) (b : Event.t) -> compare a.Event.ts b.Event.ts)
      events
  in
  let event (e : Event.t) =
    (* Flow events ([s]/[t]/[f]) carry the arrow-binding id; [f] binds
       to the enclosing slice ("bp":"e") so the arrow lands on the
       consumer's span rather than the next slice to start. *)
    let id = ("id", Json.int e.Event.flow_id) in
    let ph, extra =
      match e.Event.phase with
      | Event.Begin -> ("B", [])
      | Event.End -> ("E", [])
      | Event.Instant -> ("i", [ ("s", Json.Str "t") ])
      | Event.Flow_start -> ("s", [ id ])
      | Event.Flow_step -> ("t", [ id ])
      | Event.Flow_end -> ("f", [ ("bp", Json.Str "e"); id ])
    in
    Json.Obj
      (head ph e.Event.track
      @ [
          ("ts", ts_us e.Event.ts);
          ("cat", Json.Str "pc");
          ("name", Json.Str e.Event.name);
        ]
      @ extra
      @ [ ("args", Json.Obj (List.map (fun (k, v) -> (k, arg v)) e.Event.args)) ]
      )
  in
  let counter s =
    Json.Obj
      (head "C" 0
      @ [
          ("ts", ts_us s.s_ts);
          ("name", Json.Str s.s_name);
          ("args", Json.Obj [ ("value", Json.int s.s_value) ]);
        ])
  in
  Json.Obj
    [
      ( "traceEvents",
        Json.List
          ((meta 0 "process_name" "perfclone"
           :: List.map (fun tr -> meta tr "thread_name" (track_label tr)) tracks)
          @ List.map event events
          @ List.map counter samples) );
      ("displayTimeUnit", Json.Str "ms");
      ("otherData", Json.Obj [ ("schema", Json.Str "pc-trace/1") ]);
    ]

(* --- tracer lifecycle --- *)

let default_period_s = 0.05

let start ?(period_s = default_period_s) path =
  let restore_enabled = M.enabled () in
  let restore_collecting = Event.collecting () in
  M.set_enabled true;
  Event.set_collecting true;
  let epoch = Span.now_s () in
  let stop_flag = Atomic.make false in
  let samples = ref [] in
  let sampler =
    if period_s <= 0.0 then None
    else
      (* Sleep in short slices so [stop] never waits a full period. *)
      let rec pause deadline =
        if not (Atomic.get stop_flag) then begin
          let now = Span.now_s () in
          if now < deadline then begin
            Unix.sleepf (Float.min 0.01 (deadline -. now));
            pause deadline
          end
        end
      in
      let rec loop () =
        if not (Atomic.get stop_flag) then begin
          samples := sample_registry !samples;
          pause (Span.now_s () +. period_s);
          loop ()
        end
      in
      match Domain.spawn loop with
      | d -> Some d
      | exception _ -> None (* no spare domain: counters sample once at stop *)
  in
  { path; epoch; stop_flag; sampler; samples; restore_enabled; restore_collecting }

let stop t =
  Atomic.set t.stop_flag true;
  Option.iter Domain.join t.sampler;
  (* Final sample after the join: every counter track exists even for
     runs shorter than one sampling period. *)
  t.samples := sample_registry !(t.samples);
  let events = Event.drain () in
  Event.set_collecting t.restore_collecting;
  M.set_enabled t.restore_enabled;
  Json.to_file t.path (to_json ~epoch:t.epoch events (List.rev !(t.samples)))

let with_trace ?period_s path f =
  match path with
  | None -> f ()
  | Some path ->
    let t = start ?period_s path in
    Fun.protect ~finally:(fun () -> stop t) f
