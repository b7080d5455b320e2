module Json = Pc_util.Json

(* --- JSON --- *)

(* pc-obs/1 floats: integral values below 1e15 keep one decimal
   ("2.0"), the rest print at nine significant digits. *)
let obs_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Json.fixed 1 f
  else Json.float f

let int_fields entries =
  Json.Obj (List.map (fun (k, v) -> (k, Json.int v)) entries)

let hist (h : Metrics.hist_view) =
  let bucket i c =
    let le =
      if i < Array.length h.Metrics.le then obs_float h.Metrics.le.(i)
      else Json.Str "inf"
    in
    Json.Obj [ ("le", le); ("count", Json.int c) ]
  in
  Json.Obj
    [
      ("count", Json.int h.Metrics.count);
      ("sum", obs_float h.Metrics.sum);
      ("p50", obs_float (Metrics.hist_quantile h 0.50));
      ("p95", obs_float (Metrics.hist_quantile h 0.95));
      ("p99", obs_float (Metrics.hist_quantile h 0.99));
      ( "buckets",
        Json.List (List.mapi bucket (Array.to_list h.Metrics.bucket_counts)) );
    ]

(* Exclusive (self) time: the span's duration minus its children's,
   clamped at 0 (clock skew between a parent's stop and a late child's
   can push the raw difference fractionally negative). *)
let self_s s =
  Float.max 0.0
    (Span.duration_s s
    -. List.fold_left (fun acc c -> acc +. Span.duration_s c) 0.0 (Span.children s))

let rec span s =
  Json.Obj
    [
      ("name", Json.Str (Span.name s));
      ("duration_s", obs_float (Span.duration_s s));
      ("self_s", obs_float (self_s s));
      ("children", Json.List (List.map span (Span.children s)));
    ]

let doc (snap : Metrics.snapshot) spans =
  Json.Obj
    [
      ("schema", Json.Str "pc-obs/1");
      ("counters", int_fields snap.Metrics.counters);
      ("gauges", int_fields snap.Metrics.gauges);
      ( "histograms",
        Json.Obj
          (List.map (fun (name, h) -> (name, hist h)) snap.Metrics.histograms)
      );
      ("spans", Json.List (List.map span spans));
    ]

let json snap spans = Json.encode (doc snap spans)
let write_json path snap spans = Json.to_file path (doc snap spans)

(* --- console --- *)

let pp_console ppf (snap : Metrics.snapshot) spans =
  Format.fprintf ppf "== pc_obs metrics ==@.";
  if snap.Metrics.counters <> [] then begin
    Format.fprintf ppf "counters:@.";
    List.iter
      (fun (name, v) -> Format.fprintf ppf "  %-40s %12d@." name v)
      snap.Metrics.counters
  end;
  if snap.Metrics.gauges <> [] then begin
    Format.fprintf ppf "gauges:@.";
    List.iter
      (fun (name, v) -> Format.fprintf ppf "  %-40s %12d@." name v)
      snap.Metrics.gauges
  end;
  if snap.Metrics.histograms <> [] then begin
    Format.fprintf ppf "histograms:@.";
    List.iter
      (fun (name, (h : Metrics.hist_view)) ->
        let mean =
          if h.Metrics.count = 0 then 0.0
          else h.Metrics.sum /. float_of_int h.Metrics.count
        in
        Format.fprintf ppf
          "  %-40s count %8d  sum %10.4f  mean %8.4f  p50 %8.4f  p95 %8.4f  \
           p99 %8.4f@."
          name h.Metrics.count h.Metrics.sum mean
          (Metrics.hist_quantile h 0.50)
          (Metrics.hist_quantile h 0.95)
          (Metrics.hist_quantile h 0.99))
      snap.Metrics.histograms
  end;
  if spans <> [] then begin
    Format.fprintf ppf "spans:%43s@." "total      self";
    let rec pp_span indent s =
      Format.fprintf ppf "  %s%-*s %9.4f %9.4f s@." indent
        (max 1 (40 - String.length indent))
        (Span.name s) (Span.duration_s s) (self_s s);
      List.iter (pp_span (indent ^ "  ")) (Span.children s)
    in
    List.iter (pp_span "") spans
  end

let null _snap _spans = ()
