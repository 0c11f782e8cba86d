"""Drifted-endpoint fixture: a node server missing routes the client uses."""


class _Handler:
    ROUTES = {
        ("POST", "/submit"): "post_submit",
        ("GET", "/status/"): "get_status",
    }

    def post_submit(self):
        self.send_json(202, {"job_id": "j-1", "state": "queued"})

    def get_status(self, job_id):
        self.send_json(200, {"job_id": job_id, "state": "queued"})
