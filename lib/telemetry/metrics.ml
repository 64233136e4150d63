type gauge = { mutable value : int; mutable hwm : int }

type histo = {
  mutable n : int;
  mutable sum : float;
  counts : int array; (* one slot per bound, + overflow at the end *)
}

type t = {
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  histos : (string, histo) Hashtbl.t;
}

(* Fixed bucket upper bounds, shared by every histogram so runs and
   backends are directly comparable.  Tuned for latencies in
   nanoseconds (250ns .. 10ms); the clock resolution is 1us, so the
   bottom buckets collect the "too fast to measure" mass. *)
let bounds =
  [|
    250.; 500.; 1e3; 2.5e3; 5e3; 1e4; 2.5e4; 5e4; 1e5; 2.5e5; 5e5; 1e6; 2.5e6;
    5e6; 1e7;
  |]

let create () =
  {
    counters = Hashtbl.create 16;
    gauges = Hashtbl.create 16;
    histos = Hashtbl.create 16;
  }

let incr ?(by = 1) t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r := !r + by
  | None -> Hashtbl.replace t.counters name (ref by)

let counter t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let gauge t name v =
  match Hashtbl.find_opt t.gauges name with
  | Some g ->
      g.value <- v;
      if v > g.hwm then g.hwm <- v
  | None -> Hashtbl.replace t.gauges name { value = v; hwm = v }

let gauge_value t name =
  match Hashtbl.find_opt t.gauges name with Some g -> g.value | None -> 0

let high_water t name =
  match Hashtbl.find_opt t.gauges name with Some g -> g.hwm | None -> 0

let observe t name v =
  let h =
    match Hashtbl.find_opt t.histos name with
    | Some h -> h
    | None ->
        let h = { n = 0; sum = 0.0; counts = Array.make (Array.length bounds + 1) 0 } in
        Hashtbl.replace t.histos name h;
        h
  in
  h.n <- h.n + 1;
  h.sum <- h.sum +. v;
  let rec slot i =
    if i >= Array.length bounds then Array.length bounds
    else if v <= bounds.(i) then i
    else slot (i + 1)
  in
  let i = slot 0 in
  h.counts.(i) <- h.counts.(i) + 1

let histo_count t name =
  match Hashtbl.find_opt t.histos name with Some h -> h.n | None -> 0

let histo_mean t name =
  match Hashtbl.find_opt t.histos name with
  | Some h when h.n > 0 -> h.sum /. float_of_int h.n
  | Some _ | None -> 0.0

(* Nearest-rank percentile over the fixed buckets: the answer is the
   upper bound of the bucket holding the rank-th sample (the lower
   bound of the overflow bucket) — an upper estimate within one bucket
   width.  Mirrors Dct_sim.Metrics.percentile's conventions: 0 on an
   empty histogram, p clamped to [0, 100]. *)
let histo_percentile t name p =
  match Hashtbl.find_opt t.histos name with
  | None -> 0.0
  | Some h when h.n = 0 -> 0.0
  | Some h ->
      let p = Float.min 100.0 (Float.max 0.0 p) in
      let rank =
        max 1 (int_of_float (ceil (p /. 100.0 *. float_of_int h.n)))
      in
      let rec go i seen =
        if i >= Array.length h.counts then bounds.(Array.length bounds - 1)
        else
          let seen = seen + h.counts.(i) in
          if seen >= rank then
            if i < Array.length bounds then bounds.(i)
            else bounds.(Array.length bounds - 1)
          else go (i + 1) seen
      in
      go 0 0

let histo_buckets t name =
  match Hashtbl.find_opt t.histos name with
  | None -> []
  | Some h ->
      List.init
        (Array.length h.counts)
        (fun i ->
          ( (if i < Array.length bounds then bounds.(i) else infinity),
            h.counts.(i) ))

(* Fold a per-thread registry into an aggregate one.  Counters and
   histogram buckets are additive; gauges keep the maximum of both
   values and both high-water marks (a per-thread gauge is a residency
   sample, and the merged registry answers "how high did any thread
   get"). *)
let merge ~into src =
  Hashtbl.iter
    (fun name r ->
      match Hashtbl.find_opt into.counters name with
      | Some dst -> dst := !dst + !r
      | None -> Hashtbl.replace into.counters name (ref !r))
    src.counters;
  Hashtbl.iter
    (fun name (g : gauge) ->
      match Hashtbl.find_opt into.gauges name with
      | Some dst ->
          dst.value <- max dst.value g.value;
          dst.hwm <- max dst.hwm g.hwm
      | None -> Hashtbl.replace into.gauges name { value = g.value; hwm = g.hwm })
    src.gauges;
  Hashtbl.iter
    (fun name (h : histo) ->
      match Hashtbl.find_opt into.histos name with
      | Some dst ->
          dst.n <- dst.n + h.n;
          dst.sum <- dst.sum +. h.sum;
          Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) h.counts
      | None ->
          Hashtbl.replace into.histos name
            { n = h.n; sum = h.sum; counts = Array.copy h.counts })
    src.histos

let sorted_keys tbl =
  List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])

let counters t = List.map (fun k -> (k, counter t k)) (sorted_keys t.counters)

let gauges t =
  List.map
    (fun k ->
      let g = Hashtbl.find t.gauges k in
      (k, g.value, g.hwm))
    (sorted_keys t.gauges)

let histos t = sorted_keys t.histos

let is_empty t =
  Hashtbl.length t.counters = 0
  && Hashtbl.length t.gauges = 0
  && Hashtbl.length t.histos = 0

let fmt_ns ns =
  if ns >= 1e6 then Printf.sprintf "%.2fms" (ns /. 1e6)
  else if ns >= 1e3 then Printf.sprintf "%.1fus" (ns /. 1e3)
  else Printf.sprintf "%.0fns" ns

let render t =
  let buf = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  if counters t <> [] then begin
    line "counters:";
    List.iter (fun (k, v) -> line "  %-44s %10d" k v) (counters t)
  end;
  if gauges t <> [] then begin
    line "gauges (last / high-water):";
    List.iter (fun (k, v, hwm) -> line "  %-44s %6d / %d" k v hwm) (gauges t)
  end;
  if histos t <> [] then begin
    line "histograms (n, mean, ~p50, ~p99):";
    List.iter
      (fun k ->
        line "  %-44s %8d  %10s %10s %10s" k (histo_count t k)
          (fmt_ns (histo_mean t k))
          (fmt_ns (histo_percentile t k 50.0))
          (fmt_ns (histo_percentile t k 99.0)))
      (histos t)
  end;
  Buffer.contents buf

let to_json t =
  let counters =
    List.map (fun (k, v) -> Printf.sprintf "%S:%d" k v) (counters t)
  in
  let gauges =
    List.map
      (fun (k, v, hwm) -> Printf.sprintf "%S:{\"value\":%d,\"hwm\":%d}" k v hwm)
      (gauges t)
  in
  let histos =
    List.map
      (fun k ->
        Printf.sprintf "%S:{\"n\":%d,\"mean_ns\":%.3f,\"p50_ns\":%.1f,\"p99_ns\":%.1f}"
          k (histo_count t k) (histo_mean t k)
          (histo_percentile t k 50.0)
          (histo_percentile t k 99.0))
      (histos t)
  in
  Printf.sprintf "{\"counters\":{%s},\"gauges\":{%s},\"histograms\":{%s}}"
    (String.concat "," counters)
    (String.concat "," gauges)
    (String.concat "," histos)
