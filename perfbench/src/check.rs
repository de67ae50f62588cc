//! Response checking. Every timed response is compared with what an
//! in-process engine of the same commit and state answers: the same list
//! and the same generation. A mismatch, a non-200 status, an unparsable
//! body or an I/O error is one failed operation; nothing here panics on a
//! bad response.

use ganc_http::Response;
use std::io;
use tinyjson::Value;

/// Operations attempted and failed, with the first failure kept for the
/// log.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
}

impl Tally {
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            self.first_error.get_or_insert(e);
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if let Some(e) = other.first_error {
            self.first_error.get_or_insert(e);
        }
    }
}

/// The JSON body of a 200 response.
pub fn ok_body(resp: &io::Result<Response>) -> Result<Value, String> {
    let resp = resp.as_ref().map_err(|e| format!("i/o error: {e}"))?;
    if resp.status != 200 {
        return Err(format!(
            "status {}: {}",
            resp.status,
            String::from_utf8_lossy(&resp.body)
        ));
    }
    let text = std::str::from_utf8(&resp.body).map_err(|_| "body is not UTF-8".to_string())?;
    tinyjson::from_str(text).map_err(|e| format!("body is not JSON: {e:?}"))
}

/// The `items` array of a recommendation as item ids.
pub fn items(v: &Value) -> Result<Vec<u32>, String> {
    v["items"]
        .as_array()
        .ok_or("missing items")?
        .iter()
        .map(|i| {
            i.as_u64()
                .and_then(|i| u32::try_from(i).ok())
                .ok_or_else(|| "item id is not a u32".to_string())
        })
        .collect()
}

fn generation(v: &Value) -> Result<u64, String> {
    v["generation"]
        .as_u64()
        .ok_or_else(|| "missing generation".to_string())
}

fn same_list(user: u32, got: &[u32], expect: &[u32]) -> Result<(), String> {
    if got == expect {
        Ok(())
    } else {
        Err(format!("user {user}: served {got:?}, expected {expect:?}"))
    }
}

/// A single `GET /v1/recommend/{user}` answer: the user's list and
/// generation, parsed for a later check.
pub fn parse_get(resp: &io::Result<Response>, user: u32) -> Result<(Vec<u32>, u64), String> {
    let v = ok_body(resp)?;
    if v["user"].as_u64() != Some(user as u64) {
        return Err(format!("answer is not for user {user}"));
    }
    Ok((items(&v)?, generation(&v)?))
}

/// Check a `GET /v1/recommend/{user}` answer against `expect`.
pub fn check_get(
    resp: &io::Result<Response>,
    user: u32,
    expect: &[u32],
    expect_generation: u64,
) -> Result<(), String> {
    let (got, generation) = parse_get(resp, user)?;
    if generation != expect_generation {
        return Err(format!(
            "user {user}: generation {generation}, expected {expect_generation}"
        ));
    }
    same_list(user, &got, expect)
}

/// Check a `POST /v1/recommend:batch` answer for `users` against the lists
/// `expect(user)`, returning the served lists in request order.
pub fn check_batch<'a>(
    resp: &io::Result<Response>,
    users: &[u32],
    expect: impl Fn(u32) -> &'a [u32],
    expect_generation: u64,
) -> Result<Vec<Vec<u32>>, String> {
    let v = ok_body(resp)?;
    let generation = generation(&v)?;
    if generation != expect_generation {
        return Err(format!(
            "batch generation {generation}, expected {expect_generation}"
        ));
    }
    let results = v["results"].as_array().ok_or("missing results")?;
    if results.len() != users.len() {
        return Err(format!(
            "{} results for {} users",
            results.len(),
            users.len()
        ));
    }
    users
        .iter()
        .zip(results)
        .map(|(&u, r)| {
            if r["user"].as_u64() != Some(u as u64) {
                return Err(format!("result out of order: expected user {u}"));
            }
            let got = items(r)?;
            same_list(u, &got, expect(u))?;
            Ok(got)
        })
        .collect()
}

/// Check a keyed `POST /v1/ingest` acknowledgement.
pub fn check_ack(resp: &io::Result<Response>, deduplicated: bool) -> Result<(), String> {
    let v = ok_body(resp)?;
    if v["ok"].as_bool() != Some(true) {
        return Err("ingest not acknowledged".into());
    }
    match v["deduplicated"].as_bool() {
        Some(d) if d == deduplicated => Ok(()),
        got => Err(format!("deduplicated {got:?}, expected {deduplicated}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn response(status: u16, body: &str) -> io::Result<Response> {
        Ok(Response {
            status,
            keep_alive: true,
            body: body.as_bytes().to_vec(),
        })
    }

    const GOOD: &str = r#"{"user":7,"generation":0,"items":[4,1,9]}"#;

    #[test]
    fn a_correct_answer_passes() {
        let mut tally = Tally::default();
        tally.record(check_get(&response(200, GOOD), 7, &[4, 1, 9], 0));
        assert_eq!((tally.attempted, tally.failed), (1, 0));
    }

    #[test]
    fn corrupted_answers_count_as_failed() {
        let corrupted = [
            response(200, r#"{"user":7,"generation":0,"items":[4,9,1]}"#),
            response(200, r#"{"user":7,"generation":1,"items":[4,1,9]}"#),
            response(200, r#"{"user":8,"generation":0,"items":[4,1,9]}"#),
            response(200, r#"{"user":7,"generation":0,"items":[4,1,9"#),
            response(500, GOOD),
            Err(io::Error::new(io::ErrorKind::ConnectionReset, "reset")),
        ];
        let mut tally = Tally::default();
        for resp in &corrupted {
            tally.record(check_get(resp, 7, &[4, 1, 9], 0));
        }
        assert_eq!((tally.attempted, tally.failed), (6, 6));
        assert!(tally.first_error.unwrap().contains("expected [4, 1, 9]"));
    }

    #[test]
    fn a_batch_with_one_wrong_slot_fails() {
        let expect = |u: u32| -> &'static [u32] {
            match u {
                1 => &[5, 6],
                _ => &[7, 8],
            }
        };
        let good =
            r#"{"generation":0,"results":[{"user":1,"items":[5,6]},{"user":2,"items":[7,8]}]}"#;
        let bad =
            r#"{"generation":0,"results":[{"user":1,"items":[5,6]},{"user":2,"items":[8,7]}]}"#;
        assert!(check_batch(&response(200, good), &[1, 2], expect, 0).is_ok());
        assert!(check_batch(&response(200, bad), &[1, 2], expect, 0).is_err());
        assert!(check_batch(&response(200, good), &[2, 1], expect, 0).is_err());
    }

    #[test]
    fn an_ack_must_report_the_expected_deduplication() {
        let applied = response(200, r#"{"ok":true,"deduplicated":false}"#);
        assert!(check_ack(&applied, false).is_ok());
        assert!(check_ack(&applied, true).is_err());
    }
}
