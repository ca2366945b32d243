type t = {
  id : string;
  title : string;
  header : string list;
  rows : string list list;
  notes : string list;
}

let make ~id ~title ~header ?(notes = []) rows = { id; title; header; rows; notes }

let cell_f x = Printf.sprintf "%.2f" x
let cell_pct x = Printf.sprintf "%.1f%%" (100. *. x)
let cell_ms x = Printf.sprintf "%.2fms" x

let json_str = Strovl_obs.Export.json_str

let json_list items = "[" ^ String.concat "," items ^ "]"

let to_json t =
  Printf.sprintf
    "{\"id\":%s,\"title\":%s,\"header\":%s,\"rows\":%s,\"notes\":%s}"
    (json_str t.id) (json_str t.title)
    (json_list (List.map json_str t.header))
    (json_list (List.map (fun row -> json_list (List.map json_str row)) t.rows))
    (json_list (List.map json_str t.notes))

let print ppf t =
  let all = t.header :: t.rows in
  let ncols = List.fold_left (fun acc r -> max acc (List.length r)) 0 all in
  let width c =
    List.fold_left
      (fun acc row ->
        match List.nth_opt row c with
        | Some s -> max acc (String.length s)
        | None -> acc)
      0 all
  in
  let widths = List.init ncols width in
  let pad s w = s ^ String.make (max 0 (w - String.length s)) ' ' in
  let render_row row =
    let cells =
      List.mapi (fun c w -> pad (Option.value ~default:"" (List.nth_opt row c)) w) widths
    in
    String.concat "  " cells
  in
  Format.fprintf ppf "@.== %s: %s ==@." t.id t.title;
  Format.fprintf ppf "%s@." (render_row t.header);
  Format.fprintf ppf "%s@."
    (String.concat "  " (List.map (fun w -> String.make w '-') widths));
  List.iter (fun row -> Format.fprintf ppf "%s@." (render_row row)) t.rows;
  List.iter (fun n -> Format.fprintf ppf "  note: %s@." n) t.notes

(* ------------------------- seed-sweep aggregation ------------------------- *)

(* A numeric cell as the experiments format them: a float body plus an
   optional unit suffix ([cell_pct] / [cell_ms]). [had_dot] distinguishes
   integer-formatted cells so integral stats can render without a spurious
   ".00". *)
type numcell = { value : float; suffix : string; had_dot : bool }

let parse_cell s =
  let n = String.length s in
  let suffix, body =
    if n > 2 && String.sub s (n - 2) 2 = "ms" then ("ms", String.sub s 0 (n - 2))
    else if n > 1 && s.[n - 1] = '%' then ("%", String.sub s 0 (n - 1))
    else ("", s)
  in
  match float_of_string_opt body with
  | Some value when body <> "" ->
    Some { value; suffix; had_dot = String.contains body '.' }
  | _ -> None

let format_stat ~like v =
  match like.suffix with
  | "%" -> Printf.sprintf "%.1f%%" v
  | "ms" -> Printf.sprintf "%.2fms" v
  | _ ->
    if (not like.had_dot) && Float.is_integer v then
      Printf.sprintf "%d" (int_of_float v)
    else Printf.sprintf "%.2f" v

let aggregate = function
  | [] -> invalid_arg "Table.aggregate: no tables"
  | first :: _ as tables ->
    let n = List.length tables in
    List.iter
      (fun t ->
        if
          t.id <> first.id
          || t.header <> first.header
          || List.length t.rows <> List.length first.rows
        then invalid_arg "Table.aggregate: tables have different shapes")
      tables;
    let nth_row r t = List.nth t.rows r in
    let stat_rows r =
      let rows = List.map (nth_row r) tables in
      let width =
        List.fold_left (fun acc row -> max acc (List.length row)) 0 rows
      in
      let cell reduce =
        List.init width (fun c ->
            let cells =
              List.map
                (fun row -> Option.value ~default:"" (List.nth_opt row c))
                rows
            in
            match List.map parse_cell cells with
            | parsed when List.for_all Option.is_some parsed ->
              let nums = List.filter_map Fun.id parsed in
              let like = List.hd nums in
              let vs = List.map (fun x -> x.value) nums in
              format_stat ~like (reduce vs)
            | _ ->
              (* Non-numeric column (labels): keep only when constant. *)
              let v0 = List.hd cells in
              if List.for_all (( = ) v0) cells then v0 else "…")
      in
      let cell stat reduce = stat :: cell reduce in
      let mean vs = List.fold_left ( +. ) 0. vs /. float_of_int (List.length vs) in
      [
        cell "mean" mean;
        cell "min" (fun vs -> List.fold_left Float.min Float.infinity vs);
        cell "max" (fun vs -> List.fold_left Float.max Float.neg_infinity vs);
      ]
    in
    let rows =
      List.concat (List.init (List.length first.rows) stat_rows)
    in
    {
      first with
      header = "stat" :: first.header;
      rows;
      notes =
        first.notes
        @ [ Printf.sprintf "aggregated over %d runs: per-row mean/min/max" n ];
    }
